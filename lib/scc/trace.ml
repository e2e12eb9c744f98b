(* Execution tracing: a view over the slice categories of an event log,
   exportable in the Chrome tracing JSON format (chrome://tracing,
   Perfetto) so a simulation's interleaving can be inspected visually.
   Drops are the log's, counted and surfaced ([dropped]), so a truncated
   trace is always visibly truncated. *)

type t = { mutable log : Evlog.t }

let create ?limit () = { log = Evlog.create ?limit () }
let log t = t.log
let share_log t log = t.log <- log

let record t ~ctx ~core ~start_ps ~end_ps cat =
  Evlog.record t.log ~ctx ~core ~cat ~dur:(end_ps - start_ps) ~end_ps ~fn:0
    ~line:0 ~pred:(-1)

let iter t f =
  let l = t.log in
  for i = 0 to l.len - 1 do
    let c = l.e_cat.(i) in
    if c < Evlog.n_slice_cats then
      f ~ctx:l.e_ctx.(i) ~core:l.e_core.(i)
        ~start_ps:(l.e_end.(i) - l.e_dur.(i)) ~end_ps:l.e_end.(i)
        (Evlog.cat_of_index c)
  done

let length t = Evlog.slices t.log
let dropped t = Evlog.dropped_slices t.log

let busy_by_kind t ~ctx =
  let acc = Array.make Evlog.n_slice_cats 0 in
  iter t (fun ~ctx:c ~core:_ ~start_ps ~end_ps cat ->
      if c = ctx then begin
        let i = Evlog.cat_index cat in
        acc.(i) <- acc.(i) + (end_ps - start_ps)
      end);
  List.filter_map
    (fun cat ->
      let i = Evlog.cat_index cat in
      if i < Evlog.n_slice_cats && acc.(i) > 0 then Some (cat, acc.(i))
      else None)
    Evlog.all_cats

let max_end_ps t =
  let acc = ref 0 in
  iter t (fun ~ctx:_ ~core:_ ~start_ps:_ ~end_ps _ ->
      if end_ps > !acc then acc := end_ps);
  !acc

let to_chrome_events t =
  let l = t.log in
  let acc = ref [] in
  for i = l.len - 1 downto 0 do
    let c = l.e_cat.(i) in
    if c < Evlog.n_slice_cats then
      acc :=
        Obs.Chrome.Complete
          {
            name = Evlog.cat_name (Evlog.cat_of_index c);
            cat = "sim";
            pid = l.e_core.(i);
            tid = l.e_ctx.(i);
            ts_us = float_of_int (l.e_end.(i) - l.e_dur.(i)) /. 1e6;
            dur_us = float_of_int l.e_dur.(i) /. 1e6;
            args = [];
          }
        :: !acc
  done;
  !acc

let write_chrome ?profile ?critpath t path =
  Obs.Chrome.write_merge path
    (to_chrome_events t
    @ (match profile with None -> [] | Some p -> Profile.counter_events p)
    @ match critpath with None -> [] | Some cp -> Critpath.flow_events cp);
  if dropped t = 0 then None
  else
    Some
      (Printf.sprintf
         "trace truncated, %d events dropped past the buffer limit%s"
         (dropped t)
         (if Option.is_none critpath then ""
          else "; the critical path covers the retained events only"))
