(* compile: per input, parse, race check, Stage 1-4 facts, plain and -O
   translation, bounds verification of source and translation, and
   pretty-printing — the host time of `hsmcc check/translate/verify`.
   Nothing is simulated. *)

type input = {
  file : string;  (* the CLI-visible path; synthetic inputs get a name *)
  source : string;
  options : Translate.Pass.options;
  golden_plain : string option;
  golden_opt : string option;
  golden_verify : string option;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let c_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let golden base suffix =
  let path = Filename.concat "test/golden" (base ^ suffix) in
  if Sys.file_exists path then Some (read_file path) else None

let options ?(many_to_one = false) ncores =
  { Translate.Pass.default_options with Translate.Pass.ncores; many_to_one }

(* Options match the ones the goldens were written with: examples and
   test/verify on 4 cores, the conformance corpus on 8 with the task
   loop. *)
let of_file opts path =
  let base = Filename.remove_extension (Filename.basename path) in
  { file = path; source = read_file path; options = opts;
    golden_plain = golden base ".rcce.c"; golden_opt = golden base ".opt.rcce.c";
    golden_verify = golden base ".verify.json" }

let synthetic file source options =
  { file; source; options; golden_plain = None; golden_opt = None;
    golden_verify = None }

let setup ~seed () =
  let files =
    List.map (of_file (options 4)) (c_files "examples/c")
    @ List.map (of_file (options ~many_to_one:true 8)) (c_files "test/conformance")
    @ List.map (of_file (options 4)) (c_files "test/verify")
  in
  let kernels =
    List.concat_map
      (fun (nt, ncores) ->
        List.map
          (fun (name, src) ->
            synthetic (Printf.sprintf "%s_nt%d.c" name nt) src (options ncores))
          (Inputs.kernels ~nt))
      [ (8, 8); (32, 32) ]
  in
  let example41 =
    synthetic Exp.Example41.file Exp.Example41.source (options 4)
  in
  let gens =
    List.map
      (fun (g : Inputs.gen) ->
        synthetic g.Inputs.g_name
          (Conform.Gen.source_of_program g.Inputs.g_program)
          g.Inputs.g_config.Conform.Oracle.options)
      (Inputs.gen_programs ~seed ~count:40 ~strata:Inputs.by_size)
  in
  let emits =
    List.map
      (fun (e : Inputs.gen) ->
        synthetic e.Inputs.g_name
          (Cfront.Pretty.program e.Inputs.g_program)
          e.Inputs.g_config.Conform.Oracle.options)
      (Inputs.emit_programs ~seed ~count:24)
  in
  Array.of_list (files @ kernels @ (example41 :: gens) @ emits)

let verify_summary session =
  let s = Session.absint_summary session in
  ignore (Session.bounds_verdict session : Diag.t list);
  s

let expect what golden actual =
  match golden with
  | Some g when not (String.equal g actual) -> Error (what ^ " differs from its golden")
  | _ -> Ok ()

let run_item acc inp () =
  let program =
    Span.record "cfront.parse" (fun () ->
        Cfront.Parser.program ~file:inp.file inp.source)
  in
  let session = Session.create ~file:inp.file ~options:inp.options program in
  ignore (Span.record "analysis.stage13" (fun () -> Session.pipeline session));
  ignore (Span.record "analysis.race" (fun () -> Session.race_diags session));
  ignore (Span.record "partition.stage4" (fun () -> Session.partition session));
  let source_summary =
    Span.record "absint.verify" (fun () -> verify_summary session)
  in
  let plain, _ =
    Span.record "translate.plain" (fun () ->
        Translate.Driver.translate_session session)
  in
  let translated_summary =
    Span.record "absint.verify" (fun () -> verify_summary session)
  in
  let verify_json =
    Absint.render_json ~file:inp.file [ source_summary; translated_summary ]
  in
  let plain_text =
    Span.record "cfront.pretty" (fun () -> Cfront.Pretty.program plain)
  in
  let opt_session =
    Session.create ~file:inp.file
      ~options:{ inp.options with Translate.Pass.optimize = true }
      program
  in
  let opt, _ =
    Span.record "translate.opt" (fun () ->
        Translate.Driver.translate_session opt_session)
  in
  let opt_text =
    Span.record "cfront.pretty" (fun () -> Cfront.Pretty.program opt)
  in
  let facts =
    Session.facts_computed session + Session.facts_computed opt_session
  in
  acc.Acc.events <- acc.Acc.events + facts;
  Acc.count acc "session.facts_computed" facts;
  Acc.count acc "translate.out_bytes"
    (String.length plain_text + String.length opt_text);
  Result.bind (expect "plain translation" inp.golden_plain plain_text)
    (fun () ->
      Result.bind (expect "-O translation" inp.golden_opt opt_text)
        (fun () -> expect "verify JSON" inp.golden_verify verify_json))

let pass inputs () =
  let acc = Acc.create () in
  Acc.gc_window acc (fun () ->
      Array.iter
        (fun inp ->
          Acc.item acc ~span:"compile.item" ~label:inp.file (run_item acc inp))
        inputs);
  acc
