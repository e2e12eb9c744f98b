open Cfront

type failure =
  | Translation_error of string
  | Baseline_error of string
  | Converted_error of string
  | Output_mismatch of string
  | Exit_mismatch of string

type verdict = Agree | Diverge of failure

let kind_of_failure = function
  | Translation_error _ -> "translation-error"
  | Baseline_error _ -> "baseline-error"
  | Converted_error _ -> "converted-error"
  | Output_mismatch _ -> "output-mismatch"
  | Exit_mismatch _ -> "exit-mismatch"

let failure_to_string f =
  let detail =
    match f with
    | Translation_error s | Baseline_error s | Converted_error s
    | Output_mismatch s | Exit_mismatch s -> s
  in
  Printf.sprintf "%s: %s" (kind_of_failure f) detail

type config = {
  options : Translate.Pass.options;
  passes : Translate.Pass.t list option;
}

let default_config ~ncores =
  { options = { Translate.Pass.default_options with Translate.Pass.ncores };
    passes = None }

let config_of_spec (sp : Gen.spec) =
  { options =
      { Translate.Pass.default_options with
        Translate.Pass.ncores = sp.Gen.run_cores;
        many_to_one = sp.Gen.many_to_one;
        optimize = sp.Gen.optimize };
    passes = None }

let translate cfg program =
  match cfg.passes with
  | None -> fst (Translate.Driver.translate_program ~options:cfg.options program)
  | Some passes ->
      let session = Session.create ~options:cfg.options program in
      let ctx = Translate.Pass.ctx_of_session session in
      Translate.Pass.run_all passes ctx program

(* ---------------------------------------------------------------- *)
(* Output comparison                                                *)

let lines_of output =
  String.split_on_char '\n' output |> List.filter (fun l -> l <> "")

exception Malformed of string

(* Partition printf lines into tagged observations and plain lines.
   An observation line is ["OBS <name> <idx> <value>"]; its key is
   ["<name> <idx>"]. *)
let split_obs lines =
  List.partition_map
    (fun line ->
      if String.length line >= 4 && String.sub line 0 4 = "OBS " then
        match String.split_on_char ' ' line with
        | [ _; name; idx; value ] -> (
            match (int_of_string_opt idx, int_of_string_opt value) with
            | Some _, Some v -> Left (name ^ " " ^ idx, v)
            | _ -> raise (Malformed ("unparseable observation: " ^ line)))
        | _ -> raise (Malformed ("unparseable observation: " ^ line))
      else Right line)
    lines

let counts xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      Hashtbl.replace tbl x (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x)))
    xs;
  tbl

let compare_output ~ncores ~base ~conv =
  let base_obs, base_plain = split_obs (lines_of base) in
  let conv_obs, conv_plain = split_obs (lines_of conv) in
  (* the baseline prints each observation key exactly once *)
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (key, value) ->
      if Hashtbl.mem expected key then
        raise (Malformed ("baseline printed observation twice: " ^ key));
      Hashtbl.add expected key value)
    base_obs;
  (* the converted program prints each key once per core, always with
     the baseline's value *)
  let seen = counts conv_obs in
  List.iter
    (fun (key, value) ->
      match Hashtbl.find_opt seen (key, value) with
      | Some n when n = ncores -> ()
      | Some n ->
          raise
            (Malformed
               (Printf.sprintf
                  "observation %s = %d: converted printed it %d times, expected %d"
                  key value n ncores))
      | None ->
          let actual =
            List.filter_map
              (fun (k, v) -> if k = key then Some (string_of_int v) else None)
              conv_obs
          in
          raise
            (Malformed
               (Printf.sprintf "observation %s: baseline %d, converted {%s}"
                  key value (String.concat ", " actual))))
    base_obs;
  List.iter
    (fun (key, _) ->
      if not (Hashtbl.mem expected key) then
        raise (Malformed ("converted printed an extra observation: " ^ key)))
    conv_obs;
  (* untagged lines: converted = ncores copies of the baseline multiset *)
  let bc = counts base_plain and cc = counts conv_plain in
  Hashtbl.iter
    (fun line n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt cc line) in
      if m <> n * ncores then
        raise
          (Malformed
             (Printf.sprintf
                "line %S: baseline %d time(s), converted %d (expected %d)"
                line n m (n * ncores))))
    bc;
  Hashtbl.iter
    (fun line _ ->
      if not (Hashtbl.mem bc line) then
        raise (Malformed ("converted printed an extra line: " ^ line)))
    cc

let compare_exits ~base ~conv =
  match base with
  | [] -> raise (Malformed "baseline produced no exit value")
  | b0 :: _ ->
      List.iteri
        (fun rank v ->
          if v <> b0 then
            raise
              (Malformed
                 (Printf.sprintf "core %d exited with %s, baseline %s" rank
                    (Cexec.Value.to_string v) (Cexec.Value.to_string b0))))
        conv

(* ---------------------------------------------------------------- *)

let describe_exn = function
  | Cexec.Interp.Runtime_error m -> m
  | Cexec.Value.Type_error m -> "type error: " ^ m
  | Srcloc.Error (loc, m) -> Printf.sprintf "%s: %s" (Srcloc.to_string loc) m
  | e -> Printexc.to_string e

let check cfg program =
  let ncores = cfg.options.Translate.Pass.ncores in
  match
    try Ok (translate cfg program) with
    | Translate.Driver.Error e ->
        Error (Translate.Driver.error_to_string e)
    | Translate.Pass.Inconsistent (pass, diag) ->
        Error (Printf.sprintf "pass %s: %s" pass diag)
    | e -> Error (describe_exn e)
  with
  | Error msg -> Diverge (Translation_error msg)
  | Ok translated -> (
      match
        try Ok (Cexec.Interp.run_pthread program)
        with e -> Error e
      with
      | Error e -> Diverge (Baseline_error (describe_exn e))
      | Ok base -> (
          match
            try Ok (Cexec.Interp.run_rcce ~ncores translated)
            with e -> Error e
          with
          | Error e -> Diverge (Converted_error (describe_exn e))
          | Ok conv -> (
              match
                try
                  compare_output ~ncores ~base:base.Cexec.Interp.output
                    ~conv:conv.Cexec.Interp.output;
                  Ok ()
                with Malformed m -> Error (Output_mismatch m)
              with
              | Error f -> Diverge f
              | Ok () -> (
                  try
                    compare_exits ~base:base.Cexec.Interp.exit_values
                      ~conv:conv.Cexec.Interp.exit_values;
                    Agree
                  with Malformed m -> Diverge (Exit_mismatch m)))))
