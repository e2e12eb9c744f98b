(* ledger — the one performance ledger of hsmc.

     dune exec bench/ledger.exe -- [--out FILE] [--check BASELINE]

   Runs every component below at one (CI) size and prints one metric per
   line, in a fixed order:

     {"metric":"pi_1024.events","value":338963,"gate":"exact"}

   --out also writes the lines to FILE.  --check reads a baseline in the
   same format (bench/BENCH_ledger.jsonl) and exits 1 naming every metric
   that breaks its gate.  The gates are constants of this file; the
   baseline's "gate" field is only informational:

   - exact: equals the baseline.  Events, simulated picoseconds, shared-DRAM
     loads, LBTS windows, sweep losses and translator fact counts are pure
     functions of the program and the model, so any drift is a behaviour
     change, not noise.
   - ceiling: at most [k] x the baseline (minor words allocated per event:
     deterministic, a 5% margin absorbs allocator details).
   - floor: at least max(abs, [k] x baseline).  Wall-clock rates are the
     best of N runs (the simulator is deterministic, so the minimum time
     is the least-noise estimate); the -O speedups are simulated and
     gated per row.
   - report: written, never compared (promoted words vary run to run;
     the domain-pool speedup and translator throughput depend on the
     host's neighbours).

   An -O run whose output differs from the plain translation, or an
   unverified Figure 6.1 or sweep row, fails the run outright. *)

type gate =
  | Exact
  | Ceiling of float
  | Floor of float * float  (** absolute minimum, fraction of baseline *)
  | Report

type metric = { name : string; value : float; gate : gate }

let gate_name = function
  | Exact -> "exact"
  | Ceiling _ -> "ceiling"
  | Floor _ -> "floor"
  | Report -> "report"

(* Values are rounded through the printed form when recorded, so a value
   read back from a baseline compares equal to the one that was written. *)
let fmt v =
  if Float.is_integer v || Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4f" v

let metric gate name v = { name; value = float_of_string (fmt v); gate }
let exact name n = metric Exact name (float_of_int n)
let at_least ?(abs = 0.) k = metric (Floor (abs, k))
let report = metric Report

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 1)
    fmt

let best_of n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  (Option.get !last, !best)

let ps_of_ms ms = Float.to_int (Float.round (ms *. 1e9))
let steps = 16384
let pi ~nt = Cfront.Parser.program ~file:"pi.c" (Exp.Csrc.pi ~nt ~steps)

(* --- pool: independent simulations on the domain pool --------------------- *)

(* Four 32-thread Pi runs, jobs=1 vs jobs=pool.  Runs before every other
   component, on a compacted heap (a heap the other components have grown
   makes every parallel minor collection dearer), as the median of five
   back-to-back seq/par ratios: neighbouring timings share the host's slow
   drifts, so their ratio cancels most of them. *)
let pool () =
  let program = pi ~nt:32 in
  let jobs = min 4 (Exp.Pool.default_jobs ()) in
  let thunks =
    List.init 4 (fun _ () -> ignore (Cexec.Interp.run_pthread program))
  in
  let time jobs =
    snd (best_of 1 (fun () -> Exp.Pool.map_fixed ~jobs thunks))
  in
  Gc.compact ();
  let ratios =
    List.sort compare (List.init 5 (fun _ -> time 1 /. time jobs))
  in
  [ report "pool.jobs" (float_of_int jobs);
    report "pool.speedup" (List.nth ratios 2) ]

(* --- engine throughput ---------------------------------------------------- *)

(* Events (scheduler resumes, Scc.Engine.events) are a pure function of
   the simulated schedule, so events/s compares across implementations
   that keep the schedule.  Allocation is counted on the warm-up run,
   between two minor collections: without them Gc.counters can charge
   half a minor heap of words to the wrong side of the bracket once the
   domain pool has run. *)
let per_event name ~iters run =
  let counters () =
    Gc.minor ();
    Gc.counters ()
  in
  let minor0, promoted0, _ = counters () in
  let events = run () in
  let minor1, promoted1, _ = counters () in
  let per_ev w = w /. float_of_int events in
  let _, best = best_of iters run in
  [ exact (name ^ ".events") events;
    metric (Ceiling 1.05) (name ^ ".minor_words_per_event")
      (per_ev (minor1 -. minor0));
    report (name ^ ".promoted_words_per_event")
      (per_ev (promoted1 -. promoted0));
    at_least 0.80 (name ^ ".events_per_s") (float_of_int events /. best) ]

let pi_pthread ~nt () =
  let program = pi ~nt in
  per_event (Printf.sprintf "pi_%d" nt) ~iters:7 (fun () ->
      Scc.Engine.events (Cexec.Interp.run_pthread program).Cexec.Interp.engine)

(* The engine with no interpreter in front of it: 256 contexts
   time-sharing one core, each alternating a short compute burst with a
   private-line load — the Pi run's effect mix minus all interpretation.
   If this holds while pi_* drop, the interpreter regressed. *)
let sched_raw () =
  per_event "sched_raw" ~iters:7 (fun () ->
      let eng = Scc.Engine.create () in
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0)
          ~bytes:64
      in
      for i = 0 to 255 do
        ignore
          (Scc.Engine.spawn eng ~core:0 (fun api ->
               for r = 0 to 127 do
                 api.Scc.Engine.compute 20;
                 api.Scc.Engine.load (addr + (((i + r) mod 16) * 4)) ~bytes:4
               done))
      done;
      Scc.Engine.run eng;
      Scc.Engine.events eng)

(* --- experiments ---------------------------------------------------------- *)

(* Figure 6.1 end to end: each benchmark as Pthread baseline and
   translated RCCE; an unverified result fails the run. *)
let fig_6_1 () =
  let run () = Exp.Experiments.fig_6_1_data ~scale:Exp.Experiments.Quick () in
  ignore (run ());
  let rows, best = best_of 3 run in
  List.iter
    (fun (r : Exp.Experiments.fig_6_1_row) ->
      if not r.verified then fail "fig_6_1: %s FAILED verification" r.name)
    rows;
  let configs = 2 * List.length rows in
  exact "fig_6_1.configs" configs
  :: List.concat_map
       (fun (r : Exp.Experiments.fig_6_1_row) ->
         [ exact ("fig_6_1." ^ r.name ^ ".pthread_ps") (ps_of_ms r.baseline_ms);
           exact ("fig_6_1." ^ r.name ^ ".rcce_ps") (ps_of_ms r.rcce_ms) ])
       rows
  @ [ at_least 0.80 "fig_6_1.configs_per_s" (float_of_int configs /. best) ]

(* What `translate -O` buys: each row run plain and optimized on 8 cores;
   opt_end_to_end raises if the two outputs differ. *)
let opt () =
  match Exp.Experiments.opt_end_to_end ~scale:Exp.Experiments.Quick () with
  | exception Invalid_argument msg -> fail "opt: %s" msg
  | rows ->
      List.concat_map
        (fun (r : Exp.Experiments.opt_row) ->
          let key =
            "opt." ^ List.hd (String.split_on_char ' ' r.opt_label) ^ "."
          in
          [ exact (key ^ "naive_loads") r.opt_naive_loads;
            exact (key ^ "o_loads") r.opt_o_loads;
            exact (key ^ "naive_ps") (ps_of_ms r.opt_naive_ms);
            exact (key ^ "o_ps") (ps_of_ms r.opt_o_ms);
            at_least ~abs:1.10 0.90 (key ^ "speedup") r.opt_speedup ])
        rows

(* The characterization sweep's first 24 quick configs, sequentially (the
   deterministic reference path), best of seven passes: one pass takes tens
   of milliseconds, so a single sample would gate on scheduler noise. *)
let sweep () =
  let specs =
    List.filteri (fun i _ -> i < 24) (Synth.Spec.grid Synth.Spec.Quick)
  in
  let groups, best =
    best_of 7 (fun () -> List.map Synth.Sweep.rows_of_spec specs)
  in
  let unverified =
    List.filter
      (fun r -> not r.Synth.Sweep.r_m.Synth.Kernel.m_verified)
      (List.concat groups)
  in
  if unverified <> [] then
    fail "sweep: %d rows FAILED verification" (List.length unverified);
  let elapsed rows policy =
    Option.map
      (fun r -> float_of_int r.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps)
      (Synth.Sweep.find_measurement rows policy)
  in
  let ratios =
    List.filter_map
      (fun rows ->
        match
          (elapsed rows Synth.Kernel.All_dram, elapsed rows Synth.Kernel.Greedy)
        with
        | Some d, Some g when g > 0. -> Some (d /. g)
        | _ -> None)
      groups
  in
  let n = List.length specs in
  [ exact "sweep.configs" n;
    exact "sweep.losses"
      (List.length (List.filter_map Synth.Sweep.loss_of_rows groups));
    metric Exact "sweep.mean_greedy_speedup"
      (List.fold_left ( +. ) 0. ratios
      /. float_of_int (max 1 (List.length ratios)));
    at_least ~abs:1.0 0.5 "sweep.configs_per_s" (float_of_int n /. best) ]

(* The full session path — parse, demand every Stage 1-4 fact, run the
   Stage-5 passes with structural verification — over eight sources, a
   fixed number of passes after one warm-up. *)
let translate () =
  let nt = 8 and passes = 20 in
  let sources =
    [ ("pi", Exp.Csrc.pi ~nt ~steps:4096);
      ("primes", Exp.Csrc.primes ~nt ~limit:2_000);
      ("sum35", Exp.Csrc.sum35 ~nt ~bound:20_000);
      ("dot", Exp.Csrc.dot ~nt ~n:4096);
      ("stream", Exp.Csrc.stream ~nt ~n:4096);
      ("lu", Exp.Csrc.lu ~nt ~n:32);
      ("mutex_counter", Exp.Csrc.mutex_counter ~nt ~iters:1_000);
      ("example41", Exp.Example41.source) ]
  in
  let pass () =
    List.fold_left
      (fun facts (name, src) ->
        let file = name ^ ".c" in
        let session = Session.create ~file (Cfront.Parser.program ~file src) in
        ignore (Translate.Driver.translate_session session);
        facts + Session.facts_computed session)
      0 sources
  in
  let facts = pass () in
  let (), s =
    best_of 1 (fun () ->
        for _ = 1 to passes do
          ignore (pass ())
        done)
  in
  [ exact "translate.facts_per_pass" facts;
    report "translate.programs_per_s"
      (float_of_int (passes * List.length sources) /. s) ]

(* The conservative parallel-DES ceiling of a sequential 32-rank RCCE Pi
   run split into 8 core partitions, from the LBTS window view. *)
let lbts () =
  let translated, _ = Translate.Driver.translate_program (pi ~nt:32) in
  let critpath = Scc.Critpath.create () in
  let r = Cexec.Interp.run_rcce ~critpath ~ncores:32 translated in
  let la = Scc.Critpath.lookahead ~parts:8 critpath in
  [ exact "lbts.lookahead_ps"
      (Scc.Mesh.min_hop_ps (Scc.Engine.mesh r.Cexec.Interp.engine));
    exact "lbts.windows" la.Scc.Critpath.la_windows;
    metric Exact "lbts.ceiling" la.Scc.Critpath.la_windowed_ceiling ]
  @ List.mapi
      (fun i ev -> exact (Printf.sprintf "lbts.part%d.events" i) ev)
      (Array.to_list la.Scc.Critpath.la_events)

(* --- the ledger file ------------------------------------------------------ *)

let line m =
  Printf.sprintf "{\"metric\":%S,\"value\":%s,\"gate\":%S}" m.name
    (fmt m.value) (gate_name m.gate)

let read_baseline file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         try
           Scanf.sscanf l "{\"metric\":%S,\"value\":%f,\"gate\":%S}"
             (fun name value gate -> (name, (value, gate)))
         with Scanf.Scan_failure _ | Failure _ | End_of_file ->
           fail "%s: not a ledger line: %s" file l)

(* One verdict per gated metric, so a run that breaks several gates names
   every one of them. *)
let check baseline metrics =
  let broken = ref 0 in
  let verdict name msg =
    if msg <> "" then incr broken;
    Printf.eprintf "  %-36s %s\n" name
      (if msg = "" then "ok" else "FAIL " ^ msg)
  in
  List.iter
    (fun m ->
      match (m.gate, List.assoc_opt m.name baseline) with
      | Report, _ -> ()
      | _, None -> verdict m.name "no baseline value"
      | gate, Some (b, _) ->
          let v = fmt m.value and b' = fmt b in
          verdict m.name
            (match gate with
            | Exact when m.value <> b -> Printf.sprintf "%s, baseline %s" v b'
            | Ceiling k when m.value > k *. b ->
                Printf.sprintf "%s above %.2fx baseline %s" v k b'
            | Floor (abs, k) when m.value < Float.max abs (k *. b) ->
                let rel = Printf.sprintf "%.2fx baseline %s" k b' in
                Printf.sprintf "%s below %s" v
                  (if abs > 0. then Printf.sprintf "max(%g, %s)" abs rel
                   else rel)
            | _ -> ""))
    metrics;
  List.iter
    (fun (name, (_, gate)) ->
      if gate <> "report" && not (List.exists (fun m -> m.name = name) metrics)
      then verdict name "in the baseline but not measured")
    baseline;
  if !broken > 0 then fail "%d gated metric(s) failed" !broken
  else prerr_endline "ledger: every gated metric holds"

let () =
  let out = ref None and baseline = ref None in
  Arg.parse
    [ ("--out", Arg.String (fun f -> out := Some f),
       "FILE  also write the ledger to FILE");
      ("--check", Arg.String (fun f -> baseline := Some f),
       "BASELINE  exit 1 unless every gated metric holds against BASELINE") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger [--out FILE] [--check BASELINE]";
  let baseline = Option.map read_baseline !baseline in
  let metrics =
    List.concat_map
      (fun component -> component ())
      [ pool; pi_pthread ~nt:1024; pi_pthread ~nt:8; sched_raw; fig_6_1; opt;
        sweep; translate; lbts ]
  in
  let lines = List.map line metrics in
  List.iter print_endline lines;
  Option.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines))
    !out;
  Option.iter (fun b -> check b metrics) baseline
