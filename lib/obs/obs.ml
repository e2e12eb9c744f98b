(* Shared observability core (see obs.mli).

   Instruments never read a clock themselves: timestamps are integers in
   an explicit unit handed in by the owner, which is what lets the
   simulator feed deterministic picoseconds through the exact same
   counters and spans the compiler feeds wall-clock nanoseconds. *)

type time_unit = Picoseconds | Nanoseconds

let us_of unit t =
  match unit with
  | Picoseconds -> float_of_int t /. 1e6
  | Nanoseconds -> float_of_int t /. 1e3

let wall_clock_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* --- counters ------------------------------------------------------------- *)

module Counter = struct
  type t = {
    c_name : string;
    c_help : string;
    c_labels : (string * string) list;   (* sorted by key at [make] *)
    mutable c_value : int;
  }

  let make ~name ?(labels = []) ~help () =
    let labels =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    { c_name = name; c_help = help; c_labels = labels; c_value = 0 }

  let name c = c.c_name
  let help c = c.c_help
  let labels c = c.c_labels
  let value c = c.c_value
  let incr c = c.c_value <- c.c_value + 1

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: counters are monotonic";
    c.c_value <- c.c_value + n

  (* Prometheus-style label set, e.g. {partition="3"}; "" when unlabelled. *)
  let label_string c =
    match c.c_labels with
    | [] -> ""
    | ls ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)
        ^ "}"
end

(* --- histograms ------------------------------------------------------------ *)

module Histogram = struct
  type t = {
    h_name : string;
    h_help : string;
    h_bounds : int array;   (* strictly increasing upper bounds *)
    h_counts : int array;   (* one per bound, plus the +Inf bucket *)
    mutable h_sum : int;
    mutable h_count : int;
  }

  let make ~name ~help ~bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Obs.Histogram: no buckets";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Obs.Histogram: bounds must be strictly increasing"
    done;
    {
      h_name = name;
      h_help = help;
      h_bounds = Array.copy bounds;
      h_counts = Array.make (n + 1) 0;
      h_sum = 0;
      h_count = 0;
    }

  let name h = h.h_name
  let bounds h = Array.copy h.h_bounds

  let observe h v =
    let n = Array.length h.h_bounds in
    (* buckets are few and fixed: a linear scan beats binary search *)
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do
      incr i
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_sum <- h.h_sum + v;
    h.h_count <- h.h_count + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let bucket_counts h = Array.copy h.h_counts
end

(* --- table rendering --------------------------------------------------------- *)

let render_table rows =
  match rows with
  | [] -> ""
  | _ ->
      let ncols =
        List.fold_left (fun acc r -> max acc (List.length r)) 0 rows
      in
      let widths = Array.make ncols 0 in
      List.iter
        (List.iteri (fun i cell ->
             widths.(i) <- max widths.(i) (String.length cell)))
        rows;
      let buf = Buffer.create 256 in
      List.iter
        (fun row ->
          List.iteri
            (fun i cell ->
              if i > 0 then Buffer.add_string buf "  ";
              Buffer.add_string buf cell;
              if i < List.length row - 1 then
                Buffer.add_string buf
                  (String.make (widths.(i) - String.length cell) ' '))
            row;
          Buffer.add_char buf '\n')
        rows;
      Buffer.contents buf

(* --- registry and sinks ----------------------------------------------------- *)

module Registry = struct
  type item = C of Counter.t | H of Histogram.t

  type t = {
    tbl : (string, item) Hashtbl.t;
    mutable order : string list;   (* reverse registration order *)
  }

  let create () = { tbl = Hashtbl.create 16; order = [] }

  let register t key item =
    Hashtbl.replace t.tbl key item;
    t.order <- key :: t.order

  (* Counters are keyed by name + label set, so one metric family can
     hold many labelled children (sim_account_ps_total{category="..."}). *)
  let counter t ?(help = "") ?(labels = []) name =
    let probe = Counter.make ~name ~labels ~help () in
    let key = name ^ Counter.label_string probe in
    match Hashtbl.find_opt t.tbl key with
    | Some (C c) -> c
    | Some (H _) -> invalid_arg ("Obs.Registry.counter: " ^ key ^ " is a histogram")
    | None ->
        register t key (C probe);
        probe

  let histogram t ?(help = "") ~bounds name =
    match Hashtbl.find_opt t.tbl name with
    | Some (H h) -> h
    | Some (C _) -> invalid_arg ("Obs.Registry.histogram: " ^ name ^ " is a counter")
    | None ->
        let h = Histogram.make ~name ~help ~bounds in
        register t name (H h);
        h

  let items t =
    List.rev_map (fun name -> Hashtbl.find t.tbl name) t.order

  let emit_histogram buf h =
    let name = Histogram.name h in
    if h.Histogram.h_help <> "" then
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" name h.Histogram.h_help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
    let bounds = Histogram.bounds h in
    let counts = Histogram.bucket_counts h in
    let cum = ref 0 in
    Array.iteri
      (fun i b ->
        cum := !cum + counts.(i);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name b !cum))
      bounds;
    cum := !cum + counts.(Array.length bounds);
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cum);
    Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name (Histogram.sum h));
    Buffer.add_string buf
      (Printf.sprintf "%s_count %d\n" name (Histogram.count h))

  (* Prometheus text exposition: [le] labels are cumulative and include
     the implicit +Inf bucket; metric names pass through unsanitized
     (callers pick exposition-safe names).  Labelled counters sharing a
     family name are grouped under one # HELP / # TYPE header, per the
     exposition format's one-header-per-family rule. *)
  let to_prometheus t =
    let buf = Buffer.create 1024 in
    (* group items by metric family, preserving first-registration order *)
    let fam_order = ref [] in
    let fams : (string, item list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun item ->
        let fam =
          match item with C c -> Counter.name c | H h -> Histogram.name h
        in
        match Hashtbl.find_opt fams fam with
        | Some cell -> cell := item :: !cell
        | None ->
            Hashtbl.add fams fam (ref [ item ]);
            fam_order := fam :: !fam_order)
      (items t);
    List.iter
      (fun fam ->
        let members = List.rev !(Hashtbl.find fams fam) in
        let help =
          List.fold_left
            (fun acc item ->
              if acc <> "" then acc
              else
                match item with
                | C c -> Counter.help c
                | H h -> h.Histogram.h_help)
            "" members
        in
        (match members with
        | C _ :: _ ->
            if help <> "" then
              Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fam help);
            Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" fam)
        | _ -> ());
        List.iter
          (fun item ->
            match item with
            | C c ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %d\n" fam (Counter.label_string c)
                     (Counter.value c))
            | H h -> emit_histogram buf h)
          members)
      (List.rev !fam_order);
    Buffer.contents buf

  let to_jsonl t =
    let buf = Buffer.create 1024 in
    List.iter
      (fun item ->
        (match item with
        | C c ->
            let labels =
              match Counter.labels c with
              | [] -> ""
              | ls ->
                  Printf.sprintf {|,"labels":{%s}|}
                    (String.concat ","
                       (List.map
                          (fun (k, v) ->
                            Printf.sprintf {|"%s":"%s"|} (json_escape k)
                              (json_escape v))
                          ls))
            in
            Buffer.add_string buf
              (Printf.sprintf
                 {|{"type":"counter","name":"%s"%s,"value":%d}|}
                 (json_escape (Counter.name c))
                 labels (Counter.value c))
        | H h ->
            let bounds = Histogram.bounds h in
            let counts = Histogram.bucket_counts h in
            Buffer.add_string buf
              (Printf.sprintf
                 {|{"type":"histogram","name":"%s","sum":%d,"count":%d,"bounds":[%s],"counts":[%s]}|}
                 (json_escape (Histogram.name h))
                 (Histogram.sum h) (Histogram.count h)
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int bounds)))
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int counts)))));
        Buffer.add_char buf '\n')
      (items t);
    Buffer.contents buf

  let to_table t =
    let rows =
      List.map
        (fun item ->
          match item with
          | C c ->
              [ Counter.name c ^ Counter.label_string c;
                "counter";
                string_of_int (Counter.value c) ]
          | H h ->
              [ Histogram.name h;
                "histogram";
                Printf.sprintf "count=%d sum=%d" (Histogram.count h)
                  (Histogram.sum h) ])
        (items t)
    in
    render_table ([ "name"; "kind"; "value" ] :: rows)
end

(* --- Chrome trace events ------------------------------------------------------ *)

module Chrome = struct
  type flow_phase = Flow_start | Flow_step | Flow_end

  type event =
    | Flow of {
        name : string;
        cat : string;
        id : int;
        pid : int;
        tid : int;
        ts_us : float;
        phase : flow_phase;
      }
    | Complete of {
        name : string;
        cat : string;
        pid : int;
        tid : int;
        ts_us : float;
        dur_us : float;
        args : (string * string) list;
      }
    | Counter of {
        name : string;
        pid : int;
        ts_us : float;
        series : (string * float) list;
      }
    | Process_name of { pid : int; name : string }
    | Thread_name of { pid : int; tid : int; name : string }

  let args_json args =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v))
         args)

  let event_json = function
    | Flow { name; cat; id; pid; tid; ts_us; phase } ->
        let ph, extra =
          match phase with
          | Flow_start -> "s", ""
          | Flow_step -> "t", ""
          (* bp:e binds the terminator to its enclosing slice, so the
             arrow lands on the slice the final event charged *)
          | Flow_end -> "f", {|,"bp":"e"|}
        in
        Printf.sprintf
          {|{"name":"%s","cat":"%s","ph":"%s","id":%d,"ts":%.3f,"pid":%d,"tid":%d%s}|}
          (json_escape name) (json_escape cat) ph id ts_us pid tid extra
    | Complete { name; cat; pid; tid; ts_us; dur_us; args } ->
        let base =
          Printf.sprintf
            {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d|}
            (json_escape name) (json_escape cat) ts_us dur_us pid tid
        in
        if args = [] then base ^ "}"
        else Printf.sprintf {|%s,"args":{%s}}|} base (args_json args)
    | Counter { name; pid; ts_us; series } ->
        Printf.sprintf
          {|{"name":"%s","ph":"C","ts":%.3f,"pid":%d,"args":{%s}}|}
          (json_escape name) ts_us pid
          (String.concat ","
             (List.map
                (fun (k, v) ->
                  Printf.sprintf {|"%s":%.4f|} (json_escape k) v)
                series))
    | Process_name { pid; name } ->
        Printf.sprintf
          {|{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"%s"}}|}
          pid (json_escape name)
    | Thread_name { pid; tid; name } ->
        Printf.sprintf
          {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
          pid tid (json_escape name)

  let to_json events =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (event_json e))
      events;
    Buffer.add_string buf "]\n";
    Buffer.contents buf

  (* Splice new events into an existing JSON array so sequential tools
     (hsmcc translate --trace, then simrun --trace) build one combined
     Perfetto trace.  Anything that is not recognisably a JSON array is
     overwritten. *)
  let existing_array_body path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        let s =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let s = String.trim s in
        let n = String.length s in
        if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then
          let body = String.trim (String.sub s 1 (n - 2)) in
          if body = "" then None else Some body
        else None

  let write_merge path events =
    let body = existing_array_body path in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "[";
        (match body with
        | Some b ->
            output_string oc b;
            if events <> [] then output_string oc ",\n"
        | None -> ());
        List.iteri
          (fun i e ->
            if i > 0 then output_string oc ",\n";
            output_string oc (event_json e))
          events;
        output_string oc "]\n")
end

(* --- spans --------------------------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_start : int;
  sp_dur : int;
  sp_args : (string * string) list;
}

module Spans = struct
  type t = {
    unit_ : time_unit;
    epoch : int;
    mutable spans : span list;   (* reverse recording order *)
    mutable count : int;
  }

  let create ?(epoch = 0) unit_ = { unit_; epoch; spans = []; count = 0 }

  let time_unit t = t.unit_

  let record t ~name ?(cat = "") ?(args = []) ~pid ~tid ~start ~dur () =
    t.spans <-
      {
        sp_name = name;
        sp_cat = cat;
        sp_pid = pid;
        sp_tid = tid;
        sp_start = start - t.epoch;
        sp_dur = max 0 dur;
        sp_args = args;
      }
      :: t.spans;
    t.count <- t.count + 1

  let spans t = List.rev t.spans

  let length t = t.count

  let to_chrome t =
    List.map
      (fun s ->
        Chrome.Complete
          {
            name = s.sp_name;
            cat = s.sp_cat;
            pid = s.sp_pid;
            tid = s.sp_tid;
            ts_us = us_of t.unit_ s.sp_start;
            dur_us = us_of t.unit_ s.sp_dur;
            args = s.sp_args;
          })
      (spans t)
end
