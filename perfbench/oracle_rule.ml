(* The conformance oracle's observable-behaviour rule (see
   Conform.Oracle), applied to two results the benchmark already holds:
   [Conform.Oracle.check] would run both legs itself, but here every leg
   is a separately timed item.

   The Pthread baseline prints each "OBS <name> <idx> <value>" key once;
   the RCCE program runs main on every core, so each key must appear
   exactly [ncores] times with the baseline's value, every other line
   [ncores] times as often as in the baseline, and every core must exit
   with the baseline's exit value. *)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let is_obs l = String.length l >= 4 && String.sub l 0 4 = "OBS "

let counts xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      Hashtbl.replace tbl x
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x)))
    xs;
  tbl

(* OBS lines and plain lines are both compared as multisets of whole
   lines: key+value must match exactly, so a baseline observation [l]
   seen once must appear [ncores] times, and no other line may appear. *)
let compare ~ncores ~(base : Cexec.Interp.result)
    ~(conv : Cexec.Interp.result) =
  let bl = lines base.Cexec.Interp.output
  and cl = lines conv.Cexec.Interp.output in
  let keys = List.filter_map
      (fun l ->
        if is_obs l then
          match String.split_on_char ' ' l with
          | [ _; name; idx; _ ] -> Some (name ^ " " ^ idx)
          | _ -> Some l
        else None)
      bl
  in
  if List.length (List.sort_uniq String.compare keys) <> List.length keys
  then Error "baseline printed an observation twice"
  else
    let bc = counts bl and cc = counts cl in
    let bad = ref None in
    Hashtbl.iter
      (fun l n ->
        let m = Option.value ~default:0 (Hashtbl.find_opt cc l) in
        if m <> n * ncores && !bad = None then
          bad :=
            Some
              (Printf.sprintf "line %S: baseline %d, converted %d (expected %d)"
                 l n m (n * ncores)))
      bc;
    Hashtbl.iter
      (fun l _ ->
        if (not (Hashtbl.mem bc l)) && !bad = None then
          bad := Some (Printf.sprintf "converted printed an extra line %S" l))
      cc;
    match !bad with
    | Some m -> Error m
    | None -> (
        match base.Cexec.Interp.exit_values with
        | [] -> Error "baseline produced no exit value"
        | b0 :: _ ->
            if List.for_all (fun v -> v = b0) conv.Cexec.Interp.exit_values
            then Ok ()
            else Error "a core's exit value differs from the baseline's")
