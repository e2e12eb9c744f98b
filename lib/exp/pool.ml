(* A fixed-order domain pool for the experiment sweeps.

   Thunks are claimed by index from a single atomic counter, executed on
   [jobs] domains, and gathered into an array slot keyed by the claim
   index — so the result order is the input order no matter which domain
   finished first, and concatenated output is byte-identical to a
   sequential run.  [jobs = 1] bypasses the pool entirely and runs in
   the calling domain, giving a true sequential reference.

   A thunk that raises poisons only its own slot; the first failure (in
   input order, not completion order) is re-raised in the caller once
   every domain has been joined, so no domain is ever left running.

   Each worker domain first enlarges its own minor heap (a spawned domain
   does not inherit the parent's [Gc.set]).  In OCaml 5 every minor
   collection stops all domains, so with the default 256K-word heap the
   workers spend their time waiting on each other's collections and
   [jobs = 2] ran slower than [jobs = 1]; see EXPERIMENTS.md. *)

let default_jobs () = Domain.recommended_domain_count ()

let worker_minor_heap_words = 2 * 1024 * 1024 (* 16 MB on 64-bit *)

let map_fixed ~jobs thunks =
  let n = List.length thunks in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then List.map (fun f -> f ()) thunks
  else begin
    let work = Array.of_list thunks in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match work.(i) () with
             | v -> Some (Ok v)
             | exception e -> Some (Error e)));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> invalid_arg "Pool.map_fixed: unclaimed slot")
  end
