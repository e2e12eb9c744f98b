(* Workload harness: one benchmark definition runs in the paper's three
   configurations —
   - the Pthread baseline: N threads time-sliced on one core, data in
     that core's cacheable private DRAM;
   - RCCE with off-chip shared memory (Figure 6.1);
   - RCCE with on-chip (MPB) shared memory (Figure 6.2), falling back to
     off-chip when an array does not fit the participating slices — the
     paper's Algorithm 3 behaviour and its LU Decomposition observation. *)

type placement = Off_chip | On_chip

type mode =
  | Pthread_baseline of int   (* threads, all on core 0 *)
  | Rcce of placement * int   (* placement, cores *)

let mode_to_string = function
  | Pthread_baseline n -> Printf.sprintf "pthread(%d threads, 1 core)" n
  | Rcce (Off_chip, n) -> Printf.sprintf "rcce-offchip(%d cores)" n
  | Rcce (On_chip, n) -> Printf.sprintf "rcce-mpb(%d cores)" n

let units_of_mode = function
  | Pthread_baseline n | Rcce (_, n) -> n

type ctx = {
  eng : Scc.Engine.t;
  units : int;
  mode : mode;
  mutable notes : string list;
}

let note ctx fmt =
  Printf.ksprintf (fun msg -> ctx.notes <- msg :: ctx.notes) fmt

(* Allocate a benchmark array according to the mode's placement policy. *)
let alloc ctx ~name ~elts ~elt_bytes =
  let mm = Scc.Engine.memmap ctx.eng in
  let bytes = elts * elt_bytes in
  match ctx.mode with
  | Pthread_baseline _ ->
      let base = Scc.Memmap.alloc mm (Scc.Memmap.Private 0) ~bytes in
      Sharr.create ~name ~elts ~elt_bytes (Sharr.Contiguous base)
  | Rcce (Off_chip, _) ->
      let base = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes in
      Sharr.create ~name ~elts ~elt_bytes (Sharr.Contiguous base)
  | Rcce (On_chip, ncores) -> begin
      let cores = List.init ncores (fun i -> i) in
      match Scc.Memmap.alloc_mpb_striped mm ~cores ~bytes with
      | chunks ->
          let chunk_bytes =
            let per = (bytes + ncores - 1) / ncores in
            let line = (Scc.Engine.cfg ctx.eng).Scc.Config.line_bytes in
            (per + line - 1) / line * line
          in
          Sharr.create ~name ~elts ~elt_bytes
            (Sharr.Striped { chunks = Array.of_list chunks; chunk_bytes })
      | exception Scc.Memmap.Out_of_memory _ ->
          note ctx
            "array '%s' (%d bytes) exceeds the on-chip MPB; placed off-chip"
            name bytes;
          let base = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes in
          Sharr.create ~name ~elts ~elt_bytes (Sharr.Contiguous base)
    end

(* Per-unit MPB scratch buffers for benchmarks that stage blocks of a
   too-large shared array through the on-chip memory (the paper's "bulk
   copy" Stream observation and LU pivot-row remark).  Returns [None]
   when the mode has no MPB or a slice cannot hold [bytes]. *)
let mpb_scratch ctx ~bytes =
  match ctx.mode with
  | Pthread_baseline _ | Rcce (Off_chip, _) -> None
  | Rcce (On_chip, ncores) -> begin
      let mm = Scc.Engine.memmap ctx.eng in
      match
        List.init ncores (fun core ->
            Scc.Memmap.alloc mm (Scc.Memmap.Mpb core) ~bytes)
      with
      | addrs -> Some (Array.of_list addrs)
      | exception Scc.Memmap.Out_of_memory _ ->
          note ctx "MPB scratch of %d bytes per core does not fit" bytes;
          None
    end

type instance = {
  body : Scc.Engine.api -> unit;   (* per thread / UE *)
  verify : unit -> bool;           (* after the run *)
}

type t = {
  name : string;
  instantiate : ctx -> instance;
}

type result = {
  workload : string;
  mode : mode;
  elapsed_ps : int;
  verified : bool;
  stats : Scc.Stats.t;
  notes : string list;
}

let elapsed_ms r = float_of_int r.elapsed_ps /. 1e9

let run ?cfg ?trace ?profile ?critpath (w : t) mode =
  let eng = Scc.Engine.create ?cfg ?trace ?profile ?critpath () in
  let units = units_of_mode mode in
  if units < 1 then invalid_arg "Workload.run: no execution units";
  let ctx = { eng; units; mode; notes = [] } in
  let instance = w.instantiate ctx in
  (* when profiling, each unit runs under a root frame named after the
     workload, so engine charges are attributed rather than landing on
     <toplevel> *)
  let body =
    match profile with
    | None -> instance.body
    | Some p ->
        let slot = Scc.Profile.intern p w.name in
        fun (api : Scc.Engine.api) ->
          Scc.Profile.push p ~ctx:api.Scc.Engine.self slot;
          instance.body api;
          Scc.Profile.pop p ~ctx:api.Scc.Engine.self
  in
  (match mode with
  | Pthread_baseline n ->
      for _ = 1 to n do
        ignore (Scc.Engine.spawn eng ~core:0 body)
      done
  | Rcce (_, n) ->
      for core = 0 to n - 1 do
        ignore (Scc.Engine.spawn eng ~core body)
      done);
  Scc.Engine.run eng;
  {
    workload = w.name;
    mode;
    elapsed_ps = Scc.Engine.elapsed_ps eng;
    verified = instance.verify ();
    stats = Scc.Engine.stats eng;
    notes = List.rev ctx.notes;
  }

let speedup ~baseline r =
  float_of_int baseline.elapsed_ps /. float_of_int r.elapsed_ps
