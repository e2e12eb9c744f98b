open Cfront

(* Library facade: mode detection and the thread-modular engine's entry
   point. *)

module Itv = Itv
module Aval = Aval
module Oblig = Oblig
module Engine = Engine
module Report = Report
module Sharpen = Sharpen

(* A program is analyzed under RCCE semantics when it defines the
   [RCCE_APP] entry point (the shape [lib/translate] emits); everything
   else is treated as a Pthread program. *)
let detect_mode (program : Ast.program) =
  if Ast.find_function program "RCCE_APP" <> None then Oblig.Rcce
  else Oblig.Pthread

let analyze ?mode ?(interference = true) ~ncores (program : Ast.program) =
  let mode = match mode with Some m -> m | None -> detect_mode program in
  Engine.run { Engine.mode; ncores; interference } program

(* Re-exported report helpers, so consumers need only [Absint]. *)
let diags_of = Report.diags_of
let render_human = Report.render_human
let render_json = Report.render_json
