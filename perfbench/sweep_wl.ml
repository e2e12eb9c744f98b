(* sweep: the characterization sweep's inner loop on a stratified sample
   of the quick grid.  Each config is one pool task — it builds its
   access traces once, then runs every placement policy — and the
   configs are dispatched through Exp.Pool.map_fixed the way
   `experiments sweep` does.  Each item is one Synth.Kernel.run_one,
   called through its public parts (plan, workload, replay) so the
   benchmark sees the engine's event count and the Stage-4 plan time.

   The dispatch uses one job, which runs every task in the calling
   domain: at two domains on a 2-vCPU host the domains' shared minor
   collections and the host's scheduling moved a run's timings by 11-20%
   and its peak heap by 35% from seed to seed, against 2-6% and 1% at
   one job. *)

let jobs = 1

let setup ~seed () = Array.of_list (Inputs.sweep_sample ~seed)

let run_one acc sp traces policy =
  let module K = Synth.Kernel in
  let plan =
    Span.record "partition.plan" (fun () -> K.plan_of_policy sp traces policy)
  in
  let w = K.make_workload sp traces plan in
  let cfg =
    { Scc.Config.default with Scc.Config.core_freq_mhz = sp.Synth.Spec.dvfs_mhz }
  in
  let r =
    Span.record "workloads.run" (fun () ->
        Workloads.Workload.run ~cfg w
          (Workloads.Workload.Rcce
             (Workloads.Workload.Off_chip, sp.Synth.Spec.threads)))
  in
  let stats = r.Workloads.Workload.stats in
  let events = Array.fold_left ( + ) 0 stats.Scc.Stats.domain_events in
  acc.Acc.events <- acc.Acc.events + events;
  Acc.count acc "scc.events" events;
  Acc.count acc "scc.sim_ps" r.Workloads.Workload.elapsed_ps;
  Acc.count acc "scc.shared_dram_loads" (Scc.Stats.total_shared_dram_loads stats);
  Acc.count acc "scc.mpb_lines" (Scc.Stats.total_mpb_lines stats);
  { K.m_policy = policy; m_hot = plan.K.hot_place; m_cold = plan.K.cold_place;
    m_elapsed_ps = r.Workloads.Workload.elapsed_ps;
    m_shared_dram_loads = Scc.Stats.total_shared_dram_loads stats;
    m_mpb_lines = Scc.Stats.total_mpb_lines stats;
    m_verified = r.Workloads.Workload.verified;
    m_notes = r.Workloads.Workload.notes }

(* One pool task: runs in whichever domain claims it. *)
let config_task sp () =
  let acc = Acc.create () in
  let t0 = Cpu.thread_s () in
  Acc.gc_window acc (fun () ->
      let traces =
        Span.record "synth.trace_gen" (fun () -> Synth.Kernel.traces_of_spec sp)
      in
      Acc.count acc "synth.trace_words" (Obj.reachable_words (Obj.repr traces));
      let rows =
        List.filter_map
          (fun policy ->
            let row = ref None in
            Acc.item acc ~span:"synth.run_one"
              ~label:
                (Printf.sprintf "%s [%s]" (Synth.Spec.describe sp)
                   (Synth.Kernel.policy_to_string policy))
              (fun () ->
                let m = run_one acc sp traces policy in
                row := Some { Synth.Sweep.r_spec = sp; r_m = m };
                if m.Synth.Kernel.m_verified then Ok ()
                else Error "row not verified (m_verified = false)");
            !row)
          Synth.Kernel.policies
      in
      (match
         ( Synth.Sweep.find_measurement rows Synth.Kernel.All_dram,
           Synth.Sweep.find_measurement rows Synth.Kernel.Greedy )
       with
      | Some d, Some g ->
          acc.Acc.speedups <-
            [ float_of_int d.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps
              /. float_of_int (max 1 g.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps) ]
      | _ -> ());
      if Synth.Sweep.loss_of_rows rows <> None then Acc.count acc "sweep.losses" 1);
  acc.Acc.busy <- [ Cpu.thread_s () -. t0 ];
  acc

let pass specs () =
  let acc = Acc.create () in
  let tasks = List.map config_task (Array.to_list specs) in
  let jobs = max 1 (min jobs (List.length tasks)) in
  let t0 = Unix.gettimeofday () in
  let results = Exp.Pool.map_fixed ~jobs tasks in
  acc.Acc.batch_walls <- [ (Unix.gettimeofday () -. t0, jobs) ];
  List.iter (fun r -> Acc.merge ~into:acc r) results;
  acc
