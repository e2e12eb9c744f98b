open Cfront

(* The simulated-time profiler: attribution bookkeeping (flat/inclusive,
   recursion, line heat), the engine-side invariant that every traced
   busy picosecond is attributed, contention and imbalance tables, and
   golden renderings. *)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    i + n <= m && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let fn p name =
  match
    List.find_opt
      (fun (r : Scc.Profile.fn_row) -> r.Scc.Profile.fn_name = name)
      (Scc.Profile.functions p)
  with
  | Some r -> r
  | None -> Alcotest.failf "no profile row for %s" name

(* --- attribution bookkeeping (driven by hand) ------------------------------- *)

let manual_profile () =
  let p = Scc.Profile.create () in
  let f = Scc.Profile.intern p "f" in
  let g = Scc.Profile.intern p "g" in
  Scc.Profile.push p ~ctx:0 f;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 1_000;
  Scc.Profile.push p ~ctx:0 g;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Mem_shared 500;
  Scc.Profile.pop p ~ctx:0;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 250;
  Scc.Profile.pop p ~ctx:0;
  p

let test_flat_and_inclusive () =
  let p = manual_profile () in
  let f = fn p "f" and g = fn p "g" in
  Alcotest.(check int) "f flat" 1_250 f.Scc.Profile.fn_flat_total_ps;
  Alcotest.(check int) "f inclusive counts g" 1_750 f.Scc.Profile.fn_incl_ps;
  Alcotest.(check int) "g flat" 500 g.Scc.Profile.fn_flat_total_ps;
  Alcotest.(check int) "g inclusive" 500 g.Scc.Profile.fn_incl_ps;
  Alcotest.(check int) "f compute kind"
    1_250
    f.Scc.Profile.fn_flat_ps.(Scc.Evlog.cat_index Scc.Evlog.Compute);
  Alcotest.(check int) "ctx total" 1_750 (Scc.Profile.attributed_ps p ~ctx:0);
  Alcotest.(check int) "grand total" 1_750 (Scc.Profile.total_attributed_ps p)

let test_recursion_not_double_counted () =
  let p = Scc.Profile.create () in
  let f = Scc.Profile.intern p "f" in
  Scc.Profile.push p ~ctx:0 f;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 100;
  Scc.Profile.push p ~ctx:0 f;          (* recursive re-entry *)
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 100;
  Scc.Profile.pop p ~ctx:0;
  Scc.Profile.pop p ~ctx:0;
  Alcotest.(check int) "inclusive = one activation" 200
    (fn p "f").Scc.Profile.fn_incl_ps

let test_toplevel_and_unwound_frames () =
  let p = Scc.Profile.create () in
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 50;
  let f = Scc.Profile.intern p "f" in
  Scc.Profile.push p ~ctx:0 f;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 75;
  (* no pop: thread_exit-style unwinding leaves the frame open *)
  Scc.Profile.finalize p;
  Alcotest.(check int) "empty stack charges <toplevel>" 50
    (fn p "<toplevel>").Scc.Profile.fn_flat_total_ps;
  Alcotest.(check int) "finalize completes inclusive time" 75
    (fn p "f").Scc.Profile.fn_incl_ps

let test_line_heat () =
  let p = Scc.Profile.create () in
  let f = Scc.Profile.intern p "f" in
  let l1 = Scc.Profile.intern_line p "w.c:3" in
  let l2 = Scc.Profile.intern_line p "w.c:7" in
  Scc.Profile.push p ~ctx:0 f;
  Scc.Profile.set_line p ~ctx:0 l1;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 10;
  Scc.Profile.set_line p ~ctx:0 l2;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Compute 30;
  Scc.Profile.set_line p ~ctx:0 l1;
  Scc.Profile.charge p ~ctx:0 ~cat:Scc.Evlog.Mem_shared 15;
  Scc.Profile.pop p ~ctx:0;
  Alcotest.(check (list (pair string int))) "hottest first"
    [ ("w.c:7", 30); ("w.c:3", 25) ]
    (Scc.Profile.lines p)

(* --- golden renderings -------------------------------------------------------- *)

let test_render_functions_golden () =
  Alcotest.(check string) "flat table"
    "function  calls  compute  private  shared  mpb  barrier  lock  \
     flat-ps  incl-ps\n\
     f         1      1250     0        0       0    0        0     \
     1250     1750\n\
     g         1      0        0        500     0    0        0     \
     500      500\n"
    (Scc.Profile.render_functions (manual_profile ()))

let test_render_locks_golden () =
  let p = Scc.Profile.create () in
  Scc.Profile.name_lock p ~lock:0 "m";
  Scc.Profile.lock_acquired p ~lock:0 ~wait_ps:0 ~holder:(-1);
  Scc.Profile.lock_acquired p ~lock:0 ~wait_ps:2_000 ~holder:3;
  Scc.Profile.lock_acquired p ~lock:1 ~wait_ps:0 ~holder:(-1);
  Alcotest.(check string) "contention table"
    "mutex   acqs  contended  wait-ps  max-wait-ps  holder@max\n\
     m       2     1          2000     2000         3\n\
     lock#1  1     0          0        0            -\n"
    (Scc.Profile.render_locks p)

let test_render_barriers_golden () =
  let p = Scc.Profile.create () in
  Scc.Profile.barrier_episode p ~key:(-1) ~spread_ps:100;
  Scc.Profile.barrier_episode p ~key:(-1) ~spread_ps:40;
  Scc.Profile.barrier_episode p ~key:2 ~spread_ps:7;
  Alcotest.(check string) "imbalance table"
    "barrier    episodes  spread-ps  max-spread-ps\n\
     global     2         140        100\n\
     barrier#2  1         7          7\n"
    (Scc.Profile.render_barriers p)

(* --- the engine-side invariant ------------------------------------------------ *)

let run_profiled w mode =
  let trace = Scc.Trace.create () in
  let profile = Scc.Profile.create () in
  let r = Workloads.Workload.run ~trace ~profile w mode in
  (r, trace, profile)

let busy trace ~ctx =
  List.fold_left (fun acc (_, ps) -> acc + ps)
    0
    (Scc.Trace.busy_by_kind trace ~ctx)

let pi () = List.hd (Exp.Experiments.suite Exp.Experiments.Quick)

let test_attribution_equals_traced_busy () =
  List.iter
    (fun mode ->
      let _, trace, profile = run_profiled (pi ()) mode in
      for ctx = 0 to Scc.Profile.n_ctxs profile - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s ctx %d"
             (Workloads.Workload.mode_to_string mode)
             ctx)
          (busy trace ~ctx)
          (Scc.Profile.attributed_ps profile ~ctx)
      done)
    [ Workloads.Workload.Pthread_baseline 4;
      Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 4);
      Workloads.Workload.Rcce (Workloads.Workload.On_chip, 4) ]

let test_attribution_equals_stats_busy () =
  (* The ISSUE acceptance bar: under RCCE (one context per core, no
     time slicing) the profile's attributed picoseconds are exactly the
     Stats busy time per context. *)
  let r, _, profile =
    run_profiled (pi ()) (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 8))
  in
  let stats = r.Workloads.Workload.stats in
  Array.iteri
    (fun ctx (c : Scc.Stats.ctx_stats) ->
      let stats_busy =
        c.Scc.Stats.compute_ps + c.Scc.Stats.mem_stall_ps
        + c.Scc.Stats.barrier_wait_ps + c.Scc.Stats.lock_wait_ps
      in
      Alcotest.(check int)
        (Printf.sprintf "ctx %d" ctx)
        stats_busy
        (Scc.Profile.attributed_ps profile ~ctx))
    stats.Scc.Stats.ctxs

let test_workload_root_frame () =
  let _, _, profile =
    run_profiled (pi ()) (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 8))
  in
  let row = fn profile "pi" in
  Alcotest.(check int) "one root frame per UE" 8 row.Scc.Profile.fn_calls;
  Alcotest.(check bool) "time attributed" true
    (row.Scc.Profile.fn_flat_total_ps > 0);
  Alcotest.(check int) "root frame holds everything"
    (Scc.Profile.total_attributed_ps profile)
    row.Scc.Profile.fn_incl_ps

let test_registry_totals_match_flat () =
  let _, trace, profile =
    run_profiled (pi ()) (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 4))
  in
  let traced kind =
    let acc = ref 0 in
    for ctx = 0 to Scc.Profile.n_ctxs profile - 1 do
      acc :=
        !acc
        + (try List.assoc kind (Scc.Trace.busy_by_kind trace ~ctx)
           with Not_found -> 0)
    done;
    !acc
  in
  let prom = Obs.Registry.to_prometheus (Scc.Profile.registry profile) in
  List.iter
    (fun (kind, metric) ->
      Alcotest.(check bool)
        (metric ^ " matches the trace")
        true
        (contains prom (Printf.sprintf "%s %d\n" metric (traced kind))))
    [ (Scc.Evlog.Compute, "sim_compute_ps_total");
      (Scc.Evlog.Mem_shared, "sim_mem_shared_ps_total");
      (Scc.Evlog.Barrier_wait, "sim_barrier_wait_ps_total") ]

let test_barrier_imbalance_recorded () =
  let _, _, profile =
    run_profiled (pi ()) (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 8))
  in
  match Scc.Profile.barriers profile with
  | [] -> Alcotest.fail "no barrier episodes under RCCE"
  | rows ->
      let g =
        List.find
          (fun (r : Scc.Profile.barrier_row) -> r.Scc.Profile.br_name = "global")
          rows
      in
      Alcotest.(check bool) "episodes counted" true
        (g.Scc.Profile.br_episodes >= 1);
      Alcotest.(check bool) "max <= total" true
        (g.Scc.Profile.br_max_spread_ps <= g.Scc.Profile.br_total_spread_ps)

let test_machine_timeline_samples () =
  let trace = Scc.Trace.create () in
  let profile = Scc.Profile.create ~sample_interval_ps:10_000 () in
  let _ =
    Workloads.Workload.run ~trace ~profile (pi ())
      (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 4))
  in
  match Scc.Profile.counter_events profile with
  | Obs.Chrome.Process_name { pid = 9998; _ } :: rest ->
      Alcotest.(check bool) "samples collected" true (List.length rest > 1);
      let last = ref neg_infinity in
      List.iter
        (function
          | Obs.Chrome.Counter { ts_us; series; _ } ->
              Alcotest.(check bool) "chronological" true (ts_us >= !last);
              last := ts_us;
              List.iter
                (fun (_, v) ->
                  Alcotest.(check bool) "finite sample" true
                    (Float.is_finite v && v >= 0.))
                series
          | _ -> Alcotest.fail "expected counter events after the metadata")
        rest
  | _ -> Alcotest.fail "expected the machine-metrics process metadata first"

(* --- interpreter integration -------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples_dir =
  if Sys.file_exists "../examples/c" then "../examples/c" else "examples/c"

let test_interpreter_attribution () =
  let src = read_file (examples_dir ^ "/locked_counter.c") in
  let program = Parser.program ~file:"locked_counter.c" src in
  let profile = Scc.Profile.create () in
  let trace = Scc.Trace.create () in
  let r = Cexec.Interp.run_pthread ~trace ~profile program in
  Alcotest.(check string) "still computes" "counter = 4000\n"
    r.Cexec.Interp.output;
  (* C functions become profile frames, statements line heat *)
  let work = fn profile "work" and main = fn profile "main" in
  Alcotest.(check bool) "work dominates" true
    (work.Scc.Profile.fn_flat_total_ps > main.Scc.Profile.fn_flat_total_ps);
  Alcotest.(check int) "one frame per thread" 4 work.Scc.Profile.fn_calls;
  Alcotest.(check bool) "line heat collected" true
    (List.exists
       (fun (name, _) -> contains name "locked_counter.c:")
       (Scc.Profile.lines profile));
  (* the mutex appears in the contention table under its source name *)
  (match Scc.Profile.locks profile with
  | [] -> Alcotest.fail "no lock activity recorded"
  | rows ->
      let m =
        List.find_opt
          (fun (r : Scc.Profile.lock_row) -> r.Scc.Profile.lk_name = "m")
          rows
      in
      (match m with
      | None -> Alcotest.fail "mutex m not named in the lock table"
      | Some m ->
          Alcotest.(check int) "4 threads x 1000 acquisitions" 4_000
            m.Scc.Profile.lk_acquisitions));
  (* and the invariant holds for interpreted programs too *)
  for ctx = 0 to Scc.Profile.n_ctxs profile - 1 do
    Alcotest.(check int)
      (Printf.sprintf "interp ctx %d" ctx)
      (busy trace ~ctx)
      (Scc.Profile.attributed_ps profile ~ctx)
  done

let test_profiling_off_by_default () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.compute 10));
  Scc.Engine.run eng;
  Alcotest.(check bool) "no profile" true (Scc.Engine.profile eng = None)

(* --- stats summary golden ------------------------------------------------------ *)

let test_stats_summary_golden () =
  let eng = Scc.Engine.create () in
  let mm = Scc.Engine.memmap eng in
  let shared = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:256 in
  for core = 0 to 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           api.Scc.Engine.compute 1_000;
           api.Scc.Engine.load shared ~bytes:64;
           api.Scc.Engine.store shared ~bytes:32;
           api.Scc.Engine.barrier ()))
  done;
  Scc.Engine.run eng;
  Alcotest.(check string) "summary line"
    "loads=4 stores=2 l1_hits=0 l2_hits=0 private_lines=0 shared_lines=6 \
     (r=4 w=2) mpb_lines=0"
    (Scc.Stats.summary (Scc.Engine.stats eng))

let suite =
  [
    Alcotest.test_case "flat and inclusive" `Quick test_flat_and_inclusive;
    Alcotest.test_case "recursion not double counted" `Quick
      test_recursion_not_double_counted;
    Alcotest.test_case "toplevel + unwound frames" `Quick
      test_toplevel_and_unwound_frames;
    Alcotest.test_case "line heat" `Quick test_line_heat;
    Alcotest.test_case "render functions golden" `Quick
      test_render_functions_golden;
    Alcotest.test_case "render locks golden" `Quick test_render_locks_golden;
    Alcotest.test_case "render barriers golden" `Quick
      test_render_barriers_golden;
    Alcotest.test_case "attribution equals traced busy" `Quick
      test_attribution_equals_traced_busy;
    Alcotest.test_case "attribution equals stats busy (rcce)" `Quick
      test_attribution_equals_stats_busy;
    Alcotest.test_case "workload root frame" `Quick test_workload_root_frame;
    Alcotest.test_case "registry totals match flat" `Quick
      test_registry_totals_match_flat;
    Alcotest.test_case "barrier imbalance recorded" `Quick
      test_barrier_imbalance_recorded;
    Alcotest.test_case "machine timeline samples" `Quick
      test_machine_timeline_samples;
    Alcotest.test_case "interpreter attribution" `Quick
      test_interpreter_attribution;
    Alcotest.test_case "profiling off by default" `Quick
      test_profiling_off_by_default;
    Alcotest.test_case "stats summary golden" `Quick test_stats_summary_golden;
  ]
