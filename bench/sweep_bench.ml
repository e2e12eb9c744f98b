(* sweep_bench — throughput of the synthetic characterization sweep.
   Written to BENCH_sweep.json.

   Runs a prefix of the lib/synth quick grid sequentially (jobs=1: the
   deterministic reference path), times the best of five passes over it,
   and reports configs/second plus the mean greedy-vs-all-off-chip
   speedup over the measured configs — the number the sweep exists to
   chart.  One pass over the quick prefix takes tens of milliseconds, so
   a single sample would gate on scheduler noise.

     sweep_bench [--quick] [--out FILE] [--check BASELINE] [--min-rate F]

   --check compares the headline configs/second against a previously
   written BENCH_sweep.json and exits 1 when the current rate falls
   below max(--min-rate, 0.5 x baseline) — a generous floor because the
   CI containers are noisy, but enough to catch an accidental
   super-linear slowdown in the per-config engine work (default
   --min-rate 1.0 configs/s). *)

let () =
  let quick = ref false in
  let out = ref "BENCH_sweep.json" in
  let check = ref None in
  let min_rate = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--check" :: f :: rest ->
        check := Some f;
        parse rest
    | "--min-rate" :: f :: rest -> (
        match float_of_string_opt f with
        | Some v when v > 0.0 ->
            min_rate := v;
            parse rest
        | _ ->
            Printf.eprintf
              "sweep_bench: --min-rate wants a rate > 0, got %S\n" f;
            exit 64)
    | a :: _ ->
        Printf.eprintf
          "sweep_bench: unknown argument %S\n\
           usage: sweep_bench [--quick] [--out FILE] [--check BASELINE] \
           [--min-rate F]\n"
          a;
        exit 64
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n_configs = if !quick then 24 else 96 in
  let specs =
    List.filteri (fun i _ -> i < n_configs) (Synth.Spec.grid Synth.Spec.Quick)
  in
  (* every pass computes the same rows (the sweep is deterministic) *)
  let passes = 5 in
  let timed_pass () =
    let t0 = Unix.gettimeofday () in
    let groups = List.map Synth.Sweep.rows_of_spec specs in
    (groups, Unix.gettimeofday () -. t0)
  in
  let groups, first_s = timed_pass () in
  let elapsed_s = ref first_s in
  for _ = 2 to passes do
    elapsed_s := Float.min !elapsed_s (snd (timed_pass ()))
  done;
  let elapsed_s = !elapsed_s in
  let rate = float_of_int (List.length specs) /. elapsed_s in
  let ratios =
    List.filter_map
      (fun rows ->
        match
          ( Synth.Sweep.find_measurement rows Synth.Kernel.All_dram,
            Synth.Sweep.find_measurement rows Synth.Kernel.Greedy )
        with
        | Some d, Some g
          when g.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps > 0 ->
            Some
              (float_of_int d.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps
              /. float_of_int g.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps)
        | _ -> None)
      groups
  in
  let mean_speedup =
    List.fold_left ( +. ) 0.0 ratios
    /. float_of_int (max 1 (List.length ratios))
  in
  let losses = List.filter_map Synth.Sweep.loss_of_rows groups in
  let unverified =
    List.length
      (List.filter
         (fun r -> not r.Synth.Sweep.r_m.Synth.Kernel.m_verified)
         (List.concat groups))
  in
  if unverified > 0 then begin
    Printf.eprintf "sweep_bench: %d rows FAILED verification\n" unverified;
    exit 1
  end;
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"hsmc-sweep-bench-1\",\n\
      \  \"mode\": %S,\n\
      \  \"configs\": %d,\n\
      \  \"policies\": %d,\n\
      \  \"passes\": %d,\n\
      \  \"elapsed_s\": %.3f,\n\
      \  \"mean_greedy_speedup\": %.3f,\n\
      \  \"losses\": %d,\n\
      \  \"headline_configs_per_sec\": %.3f\n\
       }\n"
      (if !quick then "quick" else "full")
      (List.length specs)
      (List.length Synth.Kernel.policies)
      passes elapsed_s mean_speedup (List.length losses) rate
  in
  let oc = open_out !out in
  output_string oc json;
  close_out oc;
  print_string json;
  match !check with
  | None -> ()
  | Some baseline_file -> (
      (* minimal field scan, same shape as opt_bench's *)
      let baseline =
        let ic = open_in baseline_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        let key = "\"headline_configs_per_sec\":" in
        let rec find i =
          if i + String.length key > String.length s then None
          else if String.sub s i (String.length key) = key then
            Some (i + String.length key)
          else find (i + 1)
        in
        match find 0 with
        | None -> None
        | Some j ->
            let k = ref j in
            while
              !k < String.length s
              && (s.[!k] = ' ' || s.[!k] = '.' || s.[!k] = '-'
                 || (s.[!k] >= '0' && s.[!k] <= '9'))
            do
              incr k
            done;
            float_of_string_opt (String.trim (String.sub s j (!k - j)))
      in
      match baseline with
      | None ->
          Printf.eprintf "sweep_bench: cannot read baseline %s\n"
            baseline_file;
          exit 65
      | Some base ->
          let floor = Float.max !min_rate (0.5 *. base) in
          if rate < floor then begin
            Printf.eprintf
              "sweep_bench: REGRESSION: %.3f configs/s is below the floor \
               %.3f (baseline %.3f, min %.2f)\n"
              rate floor base !min_rate;
            exit 1
          end
          else
            Printf.printf
              "sweep_bench: ok: %.3f configs/s vs baseline %.3f (floor \
               %.3f)\n"
              rate base floor)
