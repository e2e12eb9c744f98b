open Cfront

(** A C interpreter over the SCC simulator: translated RCCE programs and
    the Pthread programs they came from execute with every load, store,
    synchronization call and operator charged to the simulated machine. *)

exception Runtime_error of string

type result = {
  engine : Scc.Engine.t;
  output : string;              (** concatenated printf output *)
  exit_values : Value.t list;   (** per process, rank order *)
  elapsed_ps : int;
  races : Lockset.report list;
      (** Eraser findings; empty unless [detect_races] was set *)
}

val run_pthread :
  ?cfg:Scc.Config.t -> ?trace:Scc.Trace.t -> ?profile:Scc.Profile.t ->
  ?critpath:Scc.Critpath.t -> ?detect_races:bool -> Ast.program -> result
(** One process on core 0; [pthread_create] spawns further contexts on
    the same core — the paper's unconverted-program baseline.
    [detect_races] (default false) runs the Eraser lockset detector over
    every access.  With [trace] the run records a timeline; with
    [profile] every simulated picosecond is attributed to the executing
    C function and source line (see {!Scc.Profile}).  With [critpath] the
    engine additionally records the causal event-dependency graph for
    {!Scc.Critpath} critical-path extraction, what-if ceilings and the
    LBTS parallelism ceiling.
    @raise Runtime_error on dynamic errors (unbound names, bad calls). *)

val run_rcce :
  ?cfg:Scc.Config.t -> ?trace:Scc.Trace.t -> ?profile:Scc.Profile.t ->
  ?critpath:Scc.Critpath.t -> ?detect_races:bool -> ncores:int ->
  Ast.program -> result
(** One process per core, each interpreting the whole program ([RCCE_APP]
    if present, else [main]), with collective [RCCE_shmalloc] /
    [RCCE_malloc], barriers, and test-and-set locks. *)
