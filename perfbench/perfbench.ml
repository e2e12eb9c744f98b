(* The hsmc benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Run from the root of an hsmc checkout.  One closed loop with one
   caller in one domain: set-up (timed ten times, median reported), one
   warm-up pass over every input that also fixes the deterministic
   fingerprint, the simulated speedups and the correctness verdict, then
   whole measured passes for about S seconds.  Every item's output is
   checked on every pass.  Every time reported is CPU time scaled by the
   host speed a reference slice measures (Calib).  The last stdout line is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  See README.md. *)

let workloads = [ "compile"; "simulate"; "sweep"; "observe" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload compile|simulate|sweep|observe --seed N \
     --seconds S --trace 0|1";
  exit 2

let setup workload ~seed : unit -> unit -> Acc.t =
  match workload with
  | "compile" -> fun () -> Compile_wl.pass (Compile_wl.setup ~seed ())
  | "simulate" ->
      fun () -> Simulate_wl.simulate_pass (Simulate_wl.setup_simulate ~seed ())
  | "observe" ->
      fun () -> Simulate_wl.observe_pass (Simulate_wl.setup_observe ~seed ())
  | "sweep" -> fun () -> Sweep_wl.pass (Sweep_wl.setup ~seed ())
  | _ -> usage ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let geomean = function
  | [] -> 1.0
  | l ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
           /. float_of_int (List.length l))

(* Scale a CPU time by the host speed the Calib slices met: [ref_s]
   seconds over [ref_n] slices. *)
let scale ~ref_s ~ref_n = Calib.reference_s /. (ref_s /. float_of_int ref_n)

(* Set-up runs in the calling domain and is timed in its CPU time, then
   scaled by eight Calib slices run right after it.  Each sample starts
   from a freshly collected heap, so that no sample pays off the
   collector's debt from the work before it. *)
let timed f =
  Gc.full_major ();
  let t0 = Cpu.thread_s () in
  let r = f () in
  let cpu = Cpu.thread_s () -. t0 in
  let ref_s = sum (fun () -> fst (Calib.slice ())) (List.init 8 ignore) in
  (cpu *. scale ~ref_s ~ref_n:8, r)

(* A measured pass.  [cpu] is the calling domain's CPU seconds over the
   pass less the Calib slices', and [factor] the pass's host-speed
   scale: rates and latencies are taken over [cpu *. factor].  [wall] is
   printed for reference only. *)
type measured = {
  acc : Acc.t;
  cpu : float;
  factor : float;
  wall : float;
  traced : bool;
  major : int;
}

let run_pass pass ~traced =
  Span.enabled := traced;
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Unix.gettimeofday () and c0 = Cpu.thread_s () in
  let acc = pass () in
  let cpu = Cpu.thread_s () -. c0 and wall = Unix.gettimeofday () -. w0 in
  Span.enabled := false;
  { acc; cpu = cpu -. acc.Acc.ref_s;
    factor = scale ~ref_s:acc.Acc.ref_s ~ref_n:acc.Acc.ref_n; wall; traced;
    major = (Gc.quick_stat ()).Gc.major_collections - major0 }

(* Throughput over every measured pass, in scaled CPU time. *)
let per_s f ms = sum (fun m -> f m.acc) ms /. sum (fun m -> m.cpu *. m.factor) ms

let items_per_s = per_s (fun a -> float_of_int a.Acc.items)

(* --- fingerprint ---------------------------------------------------------- *)

(* The counters a host-speed-only change must not move, stored per
   (workload, seed, benchmark binary): a second run of the same binary on
   the same seed that disagrees fails. *)
let fingerprint_lines (p0 : Acc.t) =
  List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) (Acc.fingerprint p0)
  @ [ Printf.sprintf "sim_speedup_geomean %.17g" (geomean p0.Acc.speedups) ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let out_dir = "perfbench/out"

let check_fingerprint ~workload ~seed lines =
  let dir = Filename.concat out_dir "fingerprints" in
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-%s.txt" workload seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  if Sys.file_exists file then begin
    let stored =
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    List.filter_map
      (fun l ->
        if List.mem l stored then None
        else Some (Printf.sprintf "fingerprint drift: now %S, an earlier run of \
                                   this binary on this seed recorded %s" l file))
      lines
  end
  else begin
    Out_channel.with_open_bin file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    []
  end

(* --- metrics -------------------------------------------------------------- *)

let end_to_end ~workload ~setup_s ~top_heap_words ~(p0 : Acc.t) ms =
  let lat = List.concat_map (fun m -> List.map (( *. ) m.factor) m.acc.Acc.lat_ms) ms in
  [ ("setup_s", setup_s, "s");
    ("items_per_s", items_per_s ms, "1/s");
    ("item_p50_ms", percentile 0.5 lat, "ms");
    ("item_p90_ms", percentile 0.9 lat, "ms");
    ("events_per_s", per_s (fun a -> float_of_int a.Acc.events) ms, "1/s");
    ("heap_peak_mb",
     float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0, "MB");
    (* compile simulates nothing: it reports the neutral 1.0 *)
    ("sim_speedup_geomean",
     (if workload = "compile" then 1.0 else geomean p0.Acc.speedups), "x") ]

(* Spans timed around each layer's public entry points. *)
let layers =
  [ "cfront.parse"; "cfront.pretty"; "analysis.stage13"; "analysis.race";
    "partition.stage4"; "translate.plain"; "translate.opt"; "absint.verify";
    "cexec.pthread"; "cexec.rcce"; "partition.plan"; "synth.trace_gen";
    "synth.run_one"; "workloads.run"; "obs.run"; "obs.chrome"; "obs.profile";
    "obs.explain" ]

let engine_spans = [ "cexec.pthread"; "cexec.rcce"; "workloads.run"; "obs.run" ]

let counters =
  [ ("session.facts_computed", "count"); ("translate.out_bytes", "bytes");
    ("scc.events", "count"); ("scc.sim_ps", "ps");
    ("scc.shared_dram_loads", "count"); ("scc.mpb_lines", "count");
    ("sweep.losses", "count"); ("synth.trace_words", "words");
    ("obs.trace_records", "count"); ("obs.trace_dropped", "count");
    ("obs.out_bytes", "bytes") ]

let per_layer ~(p0 : Acc.t) ~spans ms =
  let traced = List.filter (fun m -> m.traced) ms in
  let plain = List.filter (fun m -> not m.traced) ms in
  let n_traced = float_of_int (List.length traced) in
  (* span times are CPU times, scaled by the traced passes' slices *)
  let ref_s = sum (fun m -> m.acc.Acc.ref_s) traced in
  let ref_n = List.fold_left (fun a m -> a + m.acc.Acc.ref_n) 0 traced in
  let factor = scale ~ref_s ~ref_n in
  let agg = Span.aggregate spans in
  let find l = Hashtbl.find_opt agg l in
  let per_call f l =
    match find l with Some a when a.Span.calls > 0 -> f a /. float_of_int a.Span.calls | _ -> 0.0
  in
  let engine_s =
    List.fold_left
      (fun acc l -> acc +. match find l with Some a -> a.Span.total_s | None -> 0.0)
      0.0 engine_spans
    *. factor
  in
  let events = float_of_int (Acc.counter p0 "scc.events") *. n_traced in
  let batches = List.concat_map (fun m -> m.acc.Acc.batch_walls) traced in
  let busy = List.concat_map (fun m -> m.acc.Acc.busy) traced in
  let jobs = List.fold_left (fun a (_, j) -> max a j) 1 batches in
  let utilization =
    if batches = [] then 0.0
    else sum Fun.id busy /. sum (fun (w, j) -> w *. float_of_int j) batches
  in
  let minor = sum (fun m -> m.acc.Acc.minor_words) plain
  and promoted = sum (fun m -> m.acc.Acc.promoted_words) plain in
  let n_plain = float_of_int (max 1 (List.length plain)) in
  let rate_plain = items_per_s plain and rate_traced = items_per_s traced in
  List.map
    (fun l -> (l ^ "_ms", per_call (fun a -> a.Span.total_s *. factor *. 1000.0) l, "ms"))
    layers
  @ List.map (fun (c, unit) -> (c, float_of_int (Acc.counter p0 c), unit)) counters
  @ [ ("scc.events_per_s", (if engine_s > 0.0 then events /. engine_s else 0.0), "1/s");
      ("pool.jobs", float_of_int jobs, "count");
      ("pool.utilization", utilization, "ratio");
      ("gc.minor_words", p0.Acc.minor_words, "words");
      ("gc.promoted_words", promoted /. n_plain, "words");
      ("gc.promoted_ratio", (if minor > 0.0 then promoted /. minor else 0.0), "ratio");
      ("gc.major_collections",
       float_of_int (List.fold_left (fun a m -> a + m.major) 0 plain) /. n_plain,
       "count") ]
  @ List.concat_map
      (fun l ->
        [ (Printf.sprintf "gc.%s.minor_words" l, per_call (fun a -> a.Span.minor) l, "words");
          (Printf.sprintf "gc.%s.promoted_words" l, per_call (fun a -> a.Span.promoted) l,
           "words") ])
      layers
  @ [ ("trace.overhead_pct", ((rate_plain /. rate_traced) -. 1.0) *. 100.0, "%");
      ("trace.spans", float_of_int (List.length spans) /. n_traced, "count");
      ("calib.slice_ms", ref_s /. float_of_int ref_n *. 1000.0, "ms") ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some s -> seed := Some s; parse rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some v when v > 0.0 -> seconds := v; parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload workloads) then usage ();
  if not (Sys.file_exists "examples/c" && Sys.file_exists "test/golden") then begin
    prerr_endline "perfbench: run from the root of an hsmc checkout";
    exit 3
  end;
  let workload = !workload and trace = !trace in
  (* set-up is timed five times before the passes and five times after
     them, so its median spans the run like the passes do *)
  let setup = setup workload ~seed in
  let first, pass = timed setup in
  let before = first :: List.init 4 (fun _ -> fst (timed setup)) in
  (* warm-up pass: never traced, so its counters are the fingerprint *)
  let w = run_pass pass ~traced:false in
  let p0 = w.acc in
  (* whole passes until --seconds of wall time are used; with --trace 1,
     untraced and traced passes alternate, and the rate difference
     between them is the tracing overhead *)
  let until = Unix.gettimeofday () +. !seconds in
  let rec passes i =
    if i >= 2 && Unix.gettimeofday () >= until then []
    else
      let m = run_pass pass ~traced:(trace && i mod 2 = 1) in
      m :: passes (i + 1)
  in
  let ms = passes 0 in
  let n = List.length ms in
  (* read before the later set-ups, whose garbage is not the workload's *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let after = List.init 5 (fun _ -> fst (timed setup)) in
  let setup_s = median (before @ after) in
  let all = p0 :: List.map (fun m -> m.acc) ms in
  (* every measured pass runs the same inputs, so a counter that moves
     between them is nondeterminism (the warm-up pass may differ by the
     few words lazy initialisation allocates) *)
  let untraced = List.filter (fun (m : measured) -> not m.traced) ms in
  let reference = Acc.fingerprint (List.hd untraced).acc in
  let drift =
    List.filter_map
      (fun (m : measured) ->
        let fp = Acc.fingerprint m.acc in
        if fp = reference then None
        else
          Some
            (Printf.sprintf "fingerprint differs between passes of one run: %s"
               (String.concat ", "
                  (List.filter_map
                     (fun (k, v) ->
                       match List.assoc_opt k reference with
                       | Some v0 when v0 = v -> None
                       | v0 -> Some (Printf.sprintf "%s %d vs %d" k v (Option.value ~default:0 v0)))
                     fp))))
      untraced
  in
  let drift =
    drift @ check_fingerprint ~workload ~seed (fingerprint_lines p0)
  in
  let attempted = List.fold_left (fun a (acc : Acc.t) -> a + acc.Acc.items) 0 all in
  let failures = List.concat_map (fun (acc : Acc.t) -> List.rev acc.Acc.failures) all in
  let failed = List.length failures + List.length drift in
  let correct = attempted > 0 && failed = 0 in
  let metrics =
    if trace then begin
      let spans = Span.all () in
      mkdir_p out_dir;
      let file = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
      Out_channel.with_open_bin file (fun oc -> output_string oc (Span.chrome_json spans));
      Printf.printf "spans: %d -> %s\n" (List.length spans) file;
      let agg = Span.aggregate spans in
      Printf.printf "%-20s %8s %12s %12s %14s %14s\n" "span" "calls" "total_ms" "self_ms"
        "minor/call" "promoted/call";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
      |> List.sort compare
      |> List.iter (fun (k, a) ->
             let c = float_of_int a.Span.calls in
             Printf.printf "%-20s %8d %12.1f %12.1f %14.0f %14.0f\n" k a.Span.calls
               (a.Span.total_s *. 1000.0) (a.Span.self_s *. 1000.0)
               (a.Span.minor /. c) (a.Span.promoted /. c));
      per_layer ~p0 ~spans ms
    end
    else
      end_to_end ~workload ~setup_s ~top_heap_words ~p0
        (List.filter (fun m -> not m.traced) ms)
  in
  Printf.printf "perfbench: workload=%s seed=%d trace=%b: 1 warm-up + %d measured passes of %d items\n"
    workload seed trace n p0.Acc.items;
  List.iteri
    (fun i (m : measured) ->
      Printf.printf "pass %d%s: %d items in %.3f s scaled (%.3f s CPU x %.3f), %.3f s wall\n"
        (i + 1) (if m.traced then " (traced)" else "") m.acc.Acc.items (m.cpu *. m.factor)
        m.cpu m.factor m.wall)
    (w :: ms);
  Printf.printf "Calib slice %.4f ms over the measured passes (reference %.4f ms)\n"
    (sum (fun m -> m.acc.Acc.ref_s) ms
    /. float_of_int (List.fold_left (fun a m -> a + m.acc.Acc.ref_n) 0 ms) *. 1000.0)
    (Calib.reference_s *. 1000.0);
  Printf.printf "ops %d ops_failed %d\n" attempted failed;
  List.iter (fun l -> Printf.printf "fingerprint %s\n" l) (fingerprint_lines p0);
  List.iteri (fun i f -> if i < 20 then Printf.printf "FAILED %s\n" f) failures;
  List.iter (fun d -> Printf.printf "FAILED %s\n" d) drift;
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %18.6f %s\n" name v unit) metrics;
  print_endline (result_json ~correct ~attempted ~failed metrics)
