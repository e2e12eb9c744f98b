(* conform: differential conformance harness for the Pthread -> RCCE
   translator.

   Generates seeded, data-race-free Pthread programs, runs each on the
   single-core pthread baseline and (translated) on the SCC simulator,
   compares the observable behaviours, and delta-debugs any diverging
   program to a minimal counterexample.

     conform --seed 42 --count 200
     conform --seed 7 --count 40 --sabotage drop-pass:mutex-convert \
             --expect-diverge
     conform replay test/conformance/*.c
     conform emit --seed 1 --count 10 --dir test/conformance *)

open Cmdliner

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let directives_of_spec ~expect (sp : Conform.Gen.spec) =
  { Conform.Harness.d_cores = sp.Conform.Gen.run_cores;
    d_many_to_one = sp.Conform.Gen.many_to_one;
    d_optimize = sp.Conform.Gen.optimize;
    d_expect = expect }

let save_failure dir (o : Conform.Harness.outcome) =
  ensure_dir dir;
  let kind = Conform.Oracle.kind_of_failure o.Conform.Harness.o_failure in
  let spec_line = Conform.Gen.describe o.o_spec in
  let d =
    directives_of_spec ~expect:(Conform.Harness.Expect_diverge kind) o.o_spec
  in
  let note = Conform.Oracle.failure_to_string o.o_failure in
  let min_path = Filename.concat dir (Printf.sprintf "seed%d.min.c" o.o_seed) in
  let orig_path =
    Filename.concat dir (Printf.sprintf "seed%d.orig.c" o.o_seed)
  in
  write_file min_path
    (Conform.Harness.corpus_file ~seed:o.o_seed ~note ~spec_line d o.o_shrunk);
  write_file orig_path
    (Conform.Harness.corpus_file ~seed:o.o_seed ~note ~spec_line d o.o_program);
  min_path

let report_failure ~save_dir (o : Conform.Harness.outcome) =
  Printf.printf "FAIL seed %d (%s)\n  %s\n" o.Conform.Harness.o_seed
    (Conform.Gen.describe o.o_spec)
    (Conform.Oracle.failure_to_string o.o_failure);
  Printf.printf "  shrunk from %d to %d (size metric, %d oracle evals)\n"
    (Conform.Shrink.size o.o_program)
    (Conform.Shrink.size o.o_shrunk)
    o.o_evals;
  (match save_dir with
  | Some dir ->
      let path = save_failure dir o in
      Printf.printf "  saved counterexample to %s\n" path
  | None -> ());
  Printf.printf "  reproduce with: conform --seed %d --count 1\n" o.o_seed;
  print_string "  --- minimized counterexample ---\n";
  print_string (Conform.Gen.source_of_program o.o_shrunk);
  print_string "  --------------------------------\n"

(* Soundness stressor for the bounds verifier: on every generated
   program, analyze the translated RCCE code and cross-check the
   verifier's verdict against the dual-execution oracle.  An analyzer
   that claims every access is proved in bounds while the converted
   execution crashes or diverges is unsound — that is the one outcome
   this mode fails on.  With --sabotage shrink-shmalloc every
   multi-element region is under-allocated by one, so a sound verifier
   must refuse to prove those programs. *)
let verify_run ~seed ~count ~sabotage ~verbose =
  let unsound = ref 0
  and flagged = ref 0
  and proved = ref 0
  and skipped = ref 0 in
  for i = 0 to count - 1 do
    let gseed = seed + i in
    let spec, program = Conform.Gen.generate ~seed:gseed in
    let cfg = Conform.Oracle.config_of_spec spec in
    let cfg =
      match sabotage with
      | None -> cfg
      | Some s -> Conform.Harness.apply_sabotage s cfg
    in
    match Conform.Oracle.translate cfg program with
    | exception _ ->
        incr skipped;
        if verbose then
          Printf.printf "[%d] seed %d: translation failed, skipped\n%!" i
            gseed
    | translated ->
        let summary =
          Absint.analyze
            ~ncores:cfg.Conform.Oracle.options.Translate.Pass.ncores
            translated
        in
        let safe = Absint.Oblig.all_proved summary in
        let oracle_crashes =
          match Conform.Oracle.check cfg program with
          | Conform.Oracle.Agree -> false
          | Conform.Oracle.Diverge
              (Conform.Oracle.Converted_error _
              | Conform.Oracle.Output_mismatch _
              | Conform.Oracle.Exit_mismatch _) -> true
          | Conform.Oracle.Diverge _ -> false
        in
        if safe && oracle_crashes then begin
          incr unsound;
          Printf.printf
            "UNSOUND seed %d (%s): verifier proved every access in \
             bounds, but the converted execution diverges\n"
            gseed (Conform.Gen.describe spec);
          print_string (Conform.Gen.source_of_program translated)
        end
        else begin
          if safe then incr proved else incr flagged;
          if verbose then
            Printf.printf "[%d] seed %d: %s\n%!" i gseed
              (if safe then "all proved"
               else
                 Printf.sprintf "%d obligation(s) not discharged"
                   (List.length (Absint.Oblig.unproved summary)))
        end
  done;
  Printf.printf
    "%d program(s): %d fully proved, %d flagged, %d skipped, %d UNSOUND%s\n"
    count !proved !flagged !skipped !unsound
    (match sabotage with
    | Some s -> " [sabotage: " ^ Conform.Harness.sabotage_to_string s ^ "]"
    | None -> "");
  if !unsound > 0 then 1 else 0

(* Synthetic-workload stressor: every config of the synth sweep grid
   (lib/synth) emits a deterministic Pthread program; each runs through
   the dual-execution oracle with the optimizer forced on — the same
   programs whose direct-route twins the characterization sweep times.
   Divergences delta-debug to minimal counterexamples like any other. *)
let synth_run ~quick ~count ~no_shrink ~save_dir ~verbose =
  let grid = if quick then Synth.Spec.Quick else Synth.Spec.Full in
  let specs = Synth.Spec.grid grid in
  let total_grid = List.length specs in
  let specs = List.filteri (fun i _ -> i < count) specs in
  let fails = ref 0 in
  List.iteri
    (fun i sp ->
      let program = Synth.Emit.program_of_spec sp in
      let cfg = Synth.Emit.oracle_config sp in
      (match Conform.Oracle.check cfg program with
      | Conform.Oracle.Agree ->
          if verbose then
            Printf.printf "[%d] %s: agree\n%!" i (Synth.Spec.describe sp)
      | Conform.Oracle.Diverge f ->
          incr fails;
          let kind = Conform.Oracle.kind_of_failure f in
          let budget = if no_shrink then 0 else if quick then 60 else 250 in
          let shrunk, evals =
            Conform.Shrink.shrink ~budget cfg ~kind program
          in
          Printf.printf "FAIL %s\n  %s\n  shrunk from %d to %d (%d oracle \
                         evals)\n"
            (Synth.Spec.describe sp)
            (Conform.Oracle.failure_to_string f)
            (Conform.Shrink.size program)
            (Conform.Shrink.size shrunk) evals;
          (match save_dir with
          | Some dir ->
              ensure_dir dir;
              let base =
                Filename.concat dir
                  (Printf.sprintf "synth_seed%d" sp.Synth.Spec.seed)
              in
              let header =
                Printf.sprintf "// synth spec: %s\n// failure: %s\n"
                  (Synth.Spec.describe sp)
                  (Conform.Oracle.failure_to_string f)
              in
              write_file (base ^ ".min.c")
                (header ^ Conform.Gen.source_of_program shrunk);
              write_file (base ^ ".orig.c")
                (header ^ Conform.Gen.source_of_program program);
              Printf.printf "  saved counterexample to %s.min.c\n" base
          | None -> ());
          print_string "  --- minimized counterexample ---\n";
          print_string (Conform.Gen.source_of_program shrunk);
          print_string "  --------------------------------\n");
      if (not verbose) && (i + 1) mod 25 = 0 then
        Printf.printf "  ... %d configs checked\n%!" (i + 1))
    specs;
  Printf.printf
    "%d synth config(s) of the %s grid (%d total), optimizer on: %d \
     divergence(s)\n"
    (List.length specs)
    (Synth.Spec.grid_to_string grid)
    total_grid !fails;
  if !fails > 0 then 1 else 0

let run_cmd seed count quick no_shrink save_dir sabotage expect_diverge
    verify synth optimize verbose =
  if synth then
    exit (synth_run ~quick ~count ~no_shrink ~save_dir ~verbose);
  let sabotage =
    match sabotage with
    | None -> None
    | Some s -> (
        match Conform.Harness.sabotage_of_string s with
        | Ok s -> Some s
        | Error e ->
            prerr_endline ("conform: " ^ e);
            exit 2)
  in
  if verify then begin
    (match sabotage with
    | Some (Conform.Harness.Drop_pass _) ->
        prerr_endline
          "conform: --verify only composes with --sabotage \
           shrink-shmalloc (drop-pass divergences are about thread \
           multiplicity, not bounds)";
        exit 2
    | _ -> ());
    exit (verify_run ~seed ~count ~sabotage ~verbose)
  end;
  let shrink_budget =
    if no_shrink then 0 else if quick then 60 else 250
  in
  let progress ~index ~seed verdict =
    if verbose then
      Printf.printf "[%d] seed %d: %s\n%!" index seed
        (match verdict with
        | Conform.Oracle.Agree -> "agree"
        | Conform.Oracle.Diverge f -> Conform.Oracle.failure_to_string f)
    else if (index + 1) mod 25 = 0 then
      Printf.printf "  ... %d programs checked\n%!" (index + 1)
  in
  let summary =
    Conform.Harness.run ~progress ~shrink_budget ?sabotage ~optimize ~seed
      ~count ()
  in
  let nfail = List.length summary.Conform.Harness.s_failures in
  List.iter (report_failure ~save_dir) summary.s_failures;
  Printf.printf "%d program(s), %d agreement(s), %d divergence(s)%s\n"
    summary.s_total (summary.s_total - nfail) nfail
    (match sabotage with
    | Some s -> " [sabotage: " ^ Conform.Harness.sabotage_to_string s ^ "]"
    | None -> "");
  if expect_diverge then
    if nfail > 0 then begin
      Printf.printf
        "killing-mutation check passed: the harness caught the sabotaged \
         pipeline\n";
      0
    end
    else begin
      Printf.printf
        "killing-mutation check FAILED: no divergence reported for a broken \
         pipeline\n";
      1
    end
  else if nfail > 0 then 1
  else 0

let replay_cmd optimize files =
  let failed = ref 0 in
  List.iter
    (fun file ->
      let ic = open_in file in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      match Conform.Harness.replay ~force_optimize:optimize ~file contents with
      | Ok () -> Printf.printf "ok   %s\n" file
      | Error e ->
          incr failed;
          Printf.printf "FAIL %s\n  %s\n" file e)
    files;
  Printf.printf "%d file(s), %d failure(s)\n" (List.length files) !failed;
  if !failed > 0 then 1 else 0

let emit_cmd seed count dir =
  ensure_dir dir;
  for i = 0 to count - 1 do
    let gseed = seed + i in
    let spec, program = Conform.Gen.generate ~seed:gseed in
    let cfg = Conform.Oracle.config_of_spec spec in
    let expect =
      match Conform.Oracle.check cfg program with
      | Conform.Oracle.Agree -> Conform.Harness.Expect_agree
      | Conform.Oracle.Diverge f ->
          Conform.Harness.Expect_diverge (Conform.Oracle.kind_of_failure f)
    in
    let d = directives_of_spec ~expect spec in
    let path = Filename.concat dir (Printf.sprintf "gen_seed%d.c" gseed) in
    write_file path
      (Conform.Harness.corpus_file ~seed:gseed
         ~spec_line:(Conform.Gen.describe spec) d program);
    Printf.printf "wrote %s (%s)\n" path (Conform.Gen.describe spec)
  done;
  0

(* ---------------------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base seed; program $(i,i) uses seed N+i.")

let count_arg =
  Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate and check.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller shrink budget, for CI.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report divergences without minimizing them.")

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save-failures" ] ~docv:"DIR"
           ~doc:"Write original and shrunk counterexamples to $(docv).")

let sabotage_arg =
  Arg.(value & opt (some string) None
       & info [ "sabotage" ] ~docv:"MUTATION"
           ~doc:"Deliberately break the pipeline (drop-pass:$(i,name)) to \
                 verify the harness catches it.")

let expect_diverge_arg =
  Arg.(value & flag
       & info [ "expect-diverge" ]
           ~doc:"Invert the exit status: succeed only if at least one \
                 divergence was found (killing-mutation check).")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Soundness stressor for the bounds verifier: analyze \
                 each translated program and fail if the verifier \
                 proves every access in bounds on a program whose \
                 converted execution the oracle can crash.  Composes \
                 with --sabotage shrink-shmalloc.")

let synth_arg =
  Arg.(value & flag
       & info [ "synth" ]
           ~doc:"Synthetic-workload stressor: run the lib/synth sweep \
                 grid's emitted Pthread programs (first --count configs; \
                 --quick selects the CI grid) through the dual-execution \
                 oracle with the optimizer on, shrinking any divergence.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One line per program.")

let optimize_arg =
  Arg.(value & flag
       & info [ "O"; "optimize" ]
           ~doc:"Force the optimizer bundle (MPB caching, PRE, folding) \
                 on every configuration checked.")

let run_term =
  Term.(const run_cmd $ seed_arg $ count_arg $ quick_arg $ no_shrink_arg
        $ save_arg $ sabotage_arg $ expect_diverge_arg $ verify_arg
        $ synth_arg $ optimize_arg $ verbose_arg)

let replay_cmd_v =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Corpus files (with // conform-* directives) to replay.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run checked-in conformance corpus files")
    Term.(const replay_cmd $ optimize_arg $ files)

let emit_cmd_v =
  let dir =
    Arg.(value & opt string "test/conformance"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Write generated programs as corpus files")
    Term.(const emit_cmd $ seed_arg $ count_arg $ dir)

let main =
  Cmd.group ~default:run_term
    (Cmd.info "conform" ~version:"1.0.0"
       ~doc:"Differential conformance testing of the Pthread->RCCE translator")
    [ replay_cmd_v; emit_cmd_v ]

let () = exit (Cmd.eval' main)
