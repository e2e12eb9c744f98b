open Cfront

(** The dual-execution oracle: run a Pthread program on the single-core
    baseline, translate it, run the translation on the SCC simulator,
    and compare the observable behaviours.

    {b Observable behaviour} is (1) the tagged observation lines [main]
    prints after the joins — ["OBS <name> <idx> <value>"] — (2) every
    other printf line, and (3) the process exit values.  The baseline
    prints each observation key once; the converted program runs [main]
    on every core, so each key must appear exactly [ncores] times and
    always with the baseline's value.  Untagged lines must appear
    exactly [ncores] times each (as a multiset); every converted exit
    value must equal the baseline's. *)

type failure =
  | Translation_error of string
      (** the Stage 1–5 pipeline rejected or crashed on the program *)
  | Baseline_error of string   (** the pthread interpretation raised *)
  | Converted_error of string  (** the RCCE interpretation raised *)
  | Output_mismatch of string  (** observations / lines disagree *)
  | Exit_mismatch of string    (** exit values disagree *)

type verdict = Agree | Diverge of failure

val kind_of_failure : failure -> string
(** A stable short tag: ["translation-error"], ["baseline-error"],
    ["converted-error"], ["output-mismatch"], ["exit-mismatch"]. *)

val failure_to_string : failure -> string

type config = {
  options : Translate.Pass.options;
      (** translator options; [options.ncores] is also the RCCE run's
          core count *)
  passes : Translate.Pass.t list option;
      (** [None] = the paper-faithful pipeline for [options]; [Some l]
          substitutes a custom (e.g. sabotaged) pass list *)
}

val config_of_spec : Gen.spec -> config
(** Translator options matching a generated program: [ncores] =
    [run_cores], the spec's [many_to_one]/[optimize] flags, defaults
    otherwise. *)

val default_config : ncores:int -> config

val check : config -> Ast.program -> verdict
(** Run both executions and compare.  Never raises: interpreter and
    translator exceptions become [Diverge] verdicts. *)

val translate : config -> Ast.program -> Ast.program
(** Just the translation leg (with the config's pass list), for golden
    tests and debugging.  Raises on translation failure. *)
