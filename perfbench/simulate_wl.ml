(* simulate and observe: each item is one `hsmcc run` — a Pthread
   program on one simulated core, or its -O RCCE translation on the
   chip.  Translation happens in set-up.  observe runs a subset of the
   same programs with the trace, profile and critical-path recorders
   attached and renders what `hsmcc run --trace --profile --explain-json`
   writes. *)

type program = {
  name : string;
  pthread : Cfront.Ast.program;
  rcce : Cfront.Ast.program;
  ncores : int;
}

let translate name pthread (options : Translate.Pass.options) =
  let rcce, _ =
    Translate.Driver.translate_program
      ~options:{ options with Translate.Pass.optimize = true }
      pthread
  in
  { name; pthread; rcce; ncores = options.Translate.Pass.ncores }

let kernel_programs nts =
  List.concat_map
    (fun nt ->
      List.map
        (fun (name, src) ->
          let file = Printf.sprintf "%s_nt%d.c" name nt in
          translate file
            (Cfront.Parser.program ~file src)
            { Translate.Pass.default_options with Translate.Pass.ncores = nt })
        (Inputs.kernels ~nt))
    nts

let generated ~seed ~gens ~emits =
  List.map
    (fun (g : Inputs.gen) ->
      translate g.Inputs.g_name g.Inputs.g_program
        g.Inputs.g_config.Conform.Oracle.options)
    (Inputs.gen_programs ~seed ~count:gens ~strata:Inputs.by_threads
     @ Inputs.emit_programs ~seed ~count:emits)

(* Pi at 1024 threads: a thousand contexts time-sharing the baseline's
   one core; its RCCE leg maps them onto 32 cores with the task loop. *)
let pi_1024 () =
  translate "pi_nt1024.c"
    (Cfront.Parser.program ~file:"pi_nt1024.c" (Exp.Csrc.pi ~nt:1024 ~steps:4096))
    { Translate.Pass.default_options with
      Translate.Pass.ncores = 32; many_to_one = true }

let setup_simulate ~seed () =
  Array.of_list
    ((pi_1024 () :: kernel_programs [ 8; 32 ]) @ generated ~seed ~gens:6 ~emits:4)

(* Three traced kernels and five small generated programs: the small
   items keep the median inside one cluster of item sizes. *)
let setup_observe ~seed () =
  Array.of_list
    (List.filter
       (fun p -> List.mem p.name [ "pi_nt8.c"; "sum35_nt8.c"; "mutex_counter_nt8.c" ])
       (kernel_programs [ 8 ])
    @ generated ~seed ~gens:5 ~emits:0)

let engine_counts acc (r : Cexec.Interp.result) =
  let eng = r.Cexec.Interp.engine in
  let stats = Scc.Engine.stats eng in
  let events = Scc.Engine.events eng in
  acc.Acc.events <- acc.Acc.events + events;
  Acc.count acc "scc.events" events;
  Acc.count acc "scc.sim_ps" r.Cexec.Interp.elapsed_ps;
  Acc.count acc "scc.shared_dram_loads" (Scc.Stats.total_shared_dram_loads stats);
  Acc.count acc "scc.mpb_lines" (Scc.Stats.total_mpb_lines stats)

(* Run both legs of every program as two items, compare them under the
   oracle rule, and record the simulated speedup. *)
let run_pairs acc programs ~span ~leg =
  Array.iter
    (fun p ->
      let base = ref None in
      Acc.item acc ~span ~label:(p.name ^ " (pthread)") (fun () ->
          let r = leg p `Pthread in
          base := Some r;
          Ok ());
      Acc.item acc ~span ~label:(p.name ^ " (rcce)") (fun () ->
          let conv = leg p `Rcce in
          match !base with
          | None -> Error "no baseline result to compare with"
          | Some base ->
              acc.Acc.speedups <-
                (float_of_int base.Cexec.Interp.elapsed_ps
                /. float_of_int (max 1 conv.Cexec.Interp.elapsed_ps))
                :: acc.Acc.speedups;
              Oracle_rule.compare ~ncores:p.ncores ~base ~conv))
    programs

let simulate_pass programs () =
  let acc = Acc.create () in
  let leg p = function
    | `Pthread ->
        let r =
          Span.record "cexec.pthread" (fun () -> Cexec.Interp.run_pthread p.pthread)
        in
        engine_counts acc r;
        r
    | `Rcce ->
        let r =
          Span.record "cexec.rcce" (fun () ->
              Cexec.Interp.run_rcce ~ncores:p.ncores p.rcce)
        in
        engine_counts acc r;
        r
  in
  Acc.gc_window acc (fun () -> run_pairs acc programs ~span:"simulate.item" ~leg);
  acc

let observe_pass programs () =
  let acc = Acc.create () in
  let leg p which =
    let trace = Scc.Trace.create () in
    let profile = Scc.Profile.create () in
    let critpath = Scc.Critpath.create () in
    let r =
      Span.record "obs.run" (fun () ->
          match which with
          | `Pthread -> Cexec.Interp.run_pthread ~trace ~profile ~critpath p.pthread
          | `Rcce ->
              Cexec.Interp.run_rcce ~trace ~profile ~critpath ~ncores:p.ncores p.rcce)
    in
    engine_counts acc r;
    let chrome =
      Span.record "obs.chrome" (fun () ->
          let max_end_ps =
            if Scc.Trace.dropped trace > 0 then Some (Scc.Trace.max_end_ps trace)
            else None
          in
          Obs.Chrome.to_json
            (Scc.Trace.to_chrome_events trace
            @ Scc.Profile.counter_events profile
            @ Scc.Critpath.flow_events ?max_end_ps critpath))
    in
    let tables = Span.record "obs.profile" (fun () -> Scc.Profile.render profile) in
    let explain =
      Span.record "obs.explain" (fun () -> Scc.Critpath.to_json ~profile critpath)
    in
    Acc.count acc "obs.trace_records" (Scc.Trace.length trace);
    Acc.count acc "obs.trace_dropped" (Scc.Trace.dropped trace);
    Acc.count acc "obs.out_bytes"
      (String.length chrome + String.length tables + String.length explain);
    if not (Scc.Critpath.identity_ok critpath) then
      failwith "critical-path accounting identity does not hold";
    r
  in
  Acc.gc_window acc (fun () -> run_pairs acc programs ~span:"observe.item" ~leg);
  acc
