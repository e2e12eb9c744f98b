(* The host-speed reference.  On a shared host the same code runs up to
   half as fast for minutes at a time while a neighbour loads the core
   and caches we share with it, and CPU time cannot see it: the CPU is
   ours all along, it just does less.  A fixed slice of OCaml work of
   the program's kind — a tree walk, balanced-map lookups, string
   hashing, a buffer fill — is run after every item, so it meets the
   same host states the items meet, and every reported time is scaled
   by [reference_s /. (its mean time over the same pass)].

   Measured on a 2-vCPU shared host, the per-pass CPU time of compile
   items and of these slices moved together (correlation 0.97): the
   scaled pass times spread 2.5% where the unscaled ones spread 10.4%.
   The slice reads only data built at start-up and allocates nothing, so
   it never runs the program's collector work, and its mean time after
   compile, simulate and observe items was within 5% of each other: a
   change to the program moves the scaled times, a change of host speed
   does not.  Reported times are therefore CPU times on a host where one
   slice takes [reference_s]. *)

module IM = Map.Make (Int)

type tree = Leaf of int | Node of tree * string * tree

let rec build x d =
  if d = 0 then Leaf x
  else Node (build ((x * 3) + 1) (d - 1), string_of_int x, build ((x * 5) + 2) (d - 1))

let rec walk = function
  | Leaf x -> x land 7
  | Node (l, s, r) -> walk l + String.length s + walk r

let next x = ((x * 1103515245) + 12345) land 0x3fffffff

(* Built once, at start-up; a slice only reads them and writes [buf]. *)
let tree = build 1 11
let map = List.fold_left (fun m i -> IM.add (next i) i m) IM.empty (List.init 4096 Fun.id)
let keys = Array.init 1024 string_of_int
let tbl = Hashtbl.create 1024
let () = Array.iteri (fun i k -> Hashtbl.replace tbl k i) keys
let buf = Bytes.create (64 * 1024)
let sink = ref 0

let work () =
  let s = ref (walk tree) in
  for i = 0 to 1023 do s := !s + IM.find (next ((i * 4) land 4095)) map done;
  for i = 0 to 511 do s := !s + Hashtbl.find tbl keys.((i * 7919) land 1023) done;
  for i = 0 to Bytes.length buf - 1 do Bytes.unsafe_set buf i (Char.unsafe_chr (i + !s)) done;
  sink := !s + Char.code (Bytes.get buf 4096)

(* One slice's CPU time on a quiet host: scaled times read as CPU times
   on such a host. *)
let reference_s = 0.00025

(* Run one slice in the calling domain: the work once untimed, to bring
   its data back into the caches the item just used, then once timed.
   Returns the timed run's CPU seconds and the words both runs allocated
   (none, but callers keep them out of the workload's GC counts all the
   same). *)
let slice () =
  let w0 = Gc.minor_words () in
  work ();
  let t0 = Cpu.thread_s () in
  work ();
  let t1 = Cpu.thread_s () in
  (t1 -. t0, Gc.minor_words () -. w0)
