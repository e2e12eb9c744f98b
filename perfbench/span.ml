(* Benchmark-side tracing: spans recorded around the benchmark's own
   calls into each library's public functions (no span lives inside the
   program under test).  Spans are kept in memory and written out once,
   at the end of the run, as a Chrome/Perfetto trace.

   Each span carries its name, start and end (wall clock, for the
   timeline), the CPU time its domain spent in it, the span that
   encloses it,
   the benchmark item it belongs to, the domain that ran it, and the
   minor/promoted words that domain allocated meanwhile.  Both counts are
   domain-local: minor words from [Gc.minor_words], exact to the word;
   promoted words from [Gc.counters], which moves only at the domain's
   minor collections.  [Gc.quick_stat] sums every domain and its minor
   words also move only at collections, so its deltas around a single
   call say little. *)

type t = {
  name : string;
  id : int;
  parent : int;  (* -1 for a top-level span *)
  item : int;
  label : string;  (* the item's input *)
  dom : int;
  start_s : float;
  end_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
}

(* Set once, before any worker domain is spawned. *)
let enabled = ref false

let lock = Mutex.create ()
let finished : t list ref = ref []
let next_id = Atomic.make 0
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let item_key = Domain.DLS.new_key (fun () -> ref (-1, ""))

let set_item id label = Domain.DLS.get item_key := (id, label)

let record name f =
  if not !enabled then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let minor0 = Gc.minor_words () and _, promoted0, _ = Gc.counters () in
    let start_s = Unix.gettimeofday () and cpu0 = Cpu.thread_s () in
    let finish () =
      let end_s = Unix.gettimeofday () and cpu1 = Cpu.thread_s () in
      let minor1 = Gc.minor_words () and _, promoted1, _ = Gc.counters () in
      stack := List.tl !stack;
      let item, label = !(Domain.DLS.get item_key) in
      let sp =
        { name; id; parent; item; label;
          dom = (Domain.self () :> int); start_s; end_s; cpu_s = cpu1 -. cpu0;
          minor_words = minor1 -. minor0;
          promoted_words = promoted1 -. promoted0 }
      in
      Mutex.protect lock (fun () -> finished := sp :: !finished)
    in
    Fun.protect ~finally:finish f
  end

let all () = Mutex.protect lock (fun () -> List.rev !finished)

(* Per span name: calls, total and self CPU seconds (self: the span's
   CPU time minus its direct children's — children nest strictly inside
   their parent on one domain, so their times add up to the covered
   part), and words. *)
type agg = {
  calls : int;
  self_s : float;
  total_s : float;
  minor : float;
  promoted : float;
}

let aggregate spans =
  let child_s = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_s sp.parent
          (sp.cpu_s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_s sp.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let dur = sp.cpu_s in
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_s sp.id)
      in
      let a =
        Option.value
          ~default:
            { calls = 0; self_s = 0.0; total_s = 0.0; minor = 0.0;
              promoted = 0.0 }
          (Hashtbl.find_opt by_name sp.name)
      in
      Hashtbl.replace by_name sp.name
        { calls = a.calls + 1; self_s = a.self_s +. self;
          total_s = a.total_s +. dur; minor = a.minor +. sp.minor_words;
          promoted = a.promoted +. sp.promoted_words })
    spans;
  by_name

let chrome_json spans =
  let epoch =
    List.fold_left (fun acc sp -> Float.min acc sp.start_s) infinity spans
  in
  Obs.Chrome.to_json
    (Obs.Chrome.Process_name { pid = 1; name = "perfbench" }
    :: List.map
         (fun sp ->
           Obs.Chrome.Complete
             { name = sp.name; cat = "layer"; pid = 1; tid = sp.dom;
               ts_us = (sp.start_s -. epoch) *. 1e6;
               dur_us = (sp.end_s -. sp.start_s) *. 1e6;
               args =
                 [ ("item", string_of_int sp.item);
                   ("label", sp.label);
                   ("span", string_of_int sp.id);
                   ("parent", string_of_int sp.parent);
                   ("minor_words", Printf.sprintf "%.0f" sp.minor_words);
                   ("promoted_words", Printf.sprintf "%.0f" sp.promoted_words) ] })
         spans)
