open Cfront

(* Proof obligations and the domain-neutral analysis summary.

   The engine renders intervals to strings before they leave it, so
   sessions, reports and tests never handle {!Itv} values. *)

type status =
  | Proved
  | Unproved of string  (** reason the interval did not discharge it *)
  | Out_of_bounds       (** every concrete index is outside the block *)

type kind = Index | Deref

type t = {
  o_func : string;          (** function containing the access *)
  o_loc : Srcloc.t;
  o_path : string;          (** rendered access expression *)
  o_kind : kind;
  o_blocks : string list;   (** storage blocks the base may address *)
  o_alloc : string option;  (** allocator when a block is heap-backed,
                                e.g. ["RCCE_shmalloc"] *)
  o_index : string;         (** inferred index interval *)
  o_bound : int option;     (** smallest element count over the blocks *)
  o_status : status;
}

type mode = Pthread | Rcce

type spawn_fact = {
  sp_func : string;      (** spawned thread function *)
  sp_loc : Srcloc.t;     (** create site *)
  sp_interval : string;  (** inferred range of the thread-id argument *)
}

type extent = Main_only | Single_thread of string | Mixed

type gfact = {
  gf_name : string;
  gf_extent : extent;
  gf_interval : string;       (** joined thread extent at access sites *)
  gf_single_instance : bool;  (** the extent interval is a singleton *)
  gf_addr_taken : bool;
}

type summary = {
  s_mode : mode;
  s_domain : string;
  s_obligations : t list;    (** sorted by location *)
  s_spawns : spawn_fact list;
  s_gfacts : gfact list;
  s_rounds : int;            (** interference iterations to the fixpoint *)
  s_functions : string list; (** functions reached by the analysis *)
}

let mode_to_string = function Pthread -> "pthread" | Rcce -> "rcce"

let kind_to_string = function Index -> "index" | Deref -> "deref"

let status_to_string = function
  | Proved -> "proved"
  | Unproved _ -> "unproved"
  | Out_of_bounds -> "out-of-bounds"

let is_proved o = o.o_status = Proved

let all_proved s = List.for_all is_proved s.s_obligations

let unproved s = List.filter (fun o -> not (is_proved o)) s.s_obligations

let shmalloc_obligations s =
  List.filter (fun o -> o.o_alloc = Some "RCCE_shmalloc") s.s_obligations

let compare_site a b =
  let c = compare a.o_loc.Srcloc.line b.o_loc.Srcloc.line in
  if c <> 0 then c
  else
    let c = compare a.o_loc.Srcloc.col b.o_loc.Srcloc.col in
    if c <> 0 then c
    else
      let c = compare a.o_func b.o_func in
      if c <> 0 then c else compare a.o_path b.o_path
