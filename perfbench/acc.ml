(* What one pass over a workload's inputs measured.  Workloads fill an
   accumulator; perfbench.ml turns passes into metrics. *)

type t = {
  mutable items : int;
  mutable lat_ms : float list;  (* CPU ms of the calling domain, per item *)
  mutable events : int;  (* work units behind events_per_s *)
  mutable failures : string list;  (* one named entry per failed item *)
  mutable speedups : float list;  (* simulated speedup per program/config *)
  mutable minor_words : float;
  mutable promoted_words : float;
  counters : (string, int) Hashtbl.t;
  mutable busy : float list;  (* busy CPU s per pool task *)
  mutable batch_walls : (float * int) list;  (* (wall s, jobs) per dispatch *)
  mutable ref_s : float;  (* CPU s of the Calib slices run after the items *)
  mutable ref_n : int;
  mutable ref_words : float;  (* minor words those slices allocated *)
}

let create () =
  { items = 0; lat_ms = []; events = 0; failures = []; speedups = [];
    minor_words = 0.0; promoted_words = 0.0; counters = Hashtbl.create 16;
    busy = []; batch_walls = []; ref_s = 0.0; ref_n = 0; ref_words = 0.0 }

let count t name n =
  Hashtbl.replace t.counters name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let fail t msg = t.failures <- msg :: t.failures

(* The deterministic fingerprint: sorted counter values plus the
   pass's domain-local minor words. *)
let fingerprint t =
  List.sort compare
    (("gc.minor_words", int_of_float t.minor_words)
    :: Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [])

let item_ids = Atomic.make 0

(* Time one item in CPU time of the calling domain, then run one Calib
   slice there: [f] returns [Error name] on a named mismatch; an
   exception counts as a failure of the item too. *)
let item t ~span ~label f =
  Span.set_item (Atomic.fetch_and_add item_ids 1) label;
  let t0 = Cpu.thread_s () in
  let outcome =
    match Span.record span f with
    | r -> r
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Cpu.thread_s () in
  let ref_s, ref_words = Calib.slice () in
  t.ref_s <- t.ref_s +. ref_s;
  t.ref_n <- t.ref_n + 1;
  t.ref_words <- t.ref_words +. ref_words;
  t.items <- t.items + 1;
  t.lat_ms <- ((t1 -. t0) *. 1000.0) :: t.lat_ms;
  match outcome with
  | Ok () -> ()
  | Error msg -> fail t (label ^ ": " ^ msg)

(* Charge the allocation of [f] (run in the current domain) to [t],
   less the words of the Calib slices run meanwhile; see Span for why
   minor and promoted words come from different calls. *)
let gc_window t f =
  let minor0 = Gc.minor_words () and _, promoted0, _ = Gc.counters () in
  let ref_words0 = t.ref_words in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, _ = Gc.counters () in
  t.minor_words <- t.minor_words +. (minor1 -. minor0) -. (t.ref_words -. ref_words0);
  t.promoted_words <- t.promoted_words +. (promoted1 -. promoted0);
  r

(* Fold a pool task's accumulator into the pass's. *)
let merge ~into t =
  into.items <- into.items + t.items;
  into.lat_ms <- t.lat_ms @ into.lat_ms;
  into.events <- into.events + t.events;
  into.failures <- t.failures @ into.failures;
  into.speedups <- t.speedups @ into.speedups;
  into.minor_words <- into.minor_words +. t.minor_words;
  into.promoted_words <- into.promoted_words +. t.promoted_words;
  Hashtbl.iter (fun k v -> count into k v) t.counters;
  into.busy <- t.busy @ into.busy;
  into.ref_s <- into.ref_s +. t.ref_s;
  into.ref_n <- into.ref_n + t.ref_n;
  into.ref_words <- into.ref_words +. t.ref_words
