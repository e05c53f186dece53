(* Sink implementations: human-readable text, JSON-lines, and the
   Chrome trace-event format (load the file in chrome://tracing or
   https://ui.perfetto.dev), plus an in-memory recorder for tests.

   Span-carrying events render with their trace identity in [args],
   and every span Begin additionally yields Chrome *flow* records:
   a flow start (ph "s") anchored at the span so children anywhere —
   including other processes — can bind to it, and a flow finish
   (ph "f") binding the span to its parent.  Merging the JSONL output
   of several processes into one document therefore draws arrows
   client → server → follower with no post-processing. *)

open Obs

type format = Text | Jsonl | Chrome

(* ------------------------------------------------------------------ *)
(* In-memory recorder                                                  *)
(* ------------------------------------------------------------------ *)

(* Returns the sink and a function yielding the events recorded so
   far, oldest first. *)
let memory () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); close = (fun () -> ()) },
    fun () -> List.rev !events )

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let pp_attrs ppf attrs =
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%a" k Obs.pp_value v) attrs

(* Timestamps are absolute microseconds; the text sink shows them
   relative to the first event so the column stays readable. *)
let text oc =
  let depth = ref 0 in
  let t0 = ref nan in
  let emit ev =
    if Float.is_nan !t0 then t0 := ev.ts_us;
    let line fmt =
      Printf.ksprintf
        (fun s ->
          Printf.fprintf oc "%10.1f %s%s\n" (ev.ts_us -. !t0)
            (String.make (2 * !depth) ' ')
            s)
        fmt
    in
    let attrs = Fmt.str "%a" pp_attrs ev.attrs in
    let logical = if ev.logical >= 0 then Printf.sprintf " @%d" ev.logical else "" in
    match ev.kind with
    | Begin ->
      line "> %s [%s]%s%s" ev.name ev.cat logical attrs;
      incr depth
    | End ->
      depth := max 0 (!depth - 1);
      line "< %s%s" ev.name attrs
    | Complete dur -> line "= %s [%s] %.1f us%s%s" ev.name ev.cat dur logical attrs
    | Instant -> line "! %s [%s]%s%s" ev.name ev.cat logical attrs
    | Sample v -> line "# %s = %g%s" ev.name v attrs
  in
  { emit; close = (fun () -> flush oc) }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let pid = lazy (Unix.getpid ())

(* The hot path appends straight into a buffer: one jsonl emission is
   a single buffer fill and one channel write, with no intermediate
   field lists or string concatenation. *)
let add_json_of_event buf ev =
  let str s =
    Buffer.add_char buf '"';
    Buffer.add_string buf (Obs.json_escape s);
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "{\"name\": ";
  str ev.name;
  Buffer.add_string buf ", \"cat\": ";
  str (if ev.cat = "" then "ddf" else ev.cat);
  Buffer.add_string buf ", \"ph\": \"";
  Buffer.add_string buf
    (match ev.kind with
    | Begin -> "B"
    | End -> "E"
    | Complete _ -> "X"
    | Instant -> "i"
    | Sample _ -> "C");
  Buffer.add_string buf "\", \"ts\": ";
  Buffer.add_string buf (Obs.json_float ev.ts_us);
  Buffer.add_string buf ", \"pid\": ";
  Buffer.add_string buf (string_of_int (Lazy.force pid));
  Buffer.add_string buf ", \"tid\": ";
  Buffer.add_string buf (string_of_int ev.tid);
  (match ev.kind with
  | Complete dur ->
    Buffer.add_string buf ", \"dur\": ";
    Buffer.add_string buf (Obs.json_float dur)
  | Instant -> Buffer.add_string buf ", \"s\": \"t\""
  | Begin | End | Sample _ -> ());
  Buffer.add_string buf ", \"args\": {";
  let sep = ref false in
  let arg k v =
    if !sep then Buffer.add_string buf ", ";
    sep := true;
    Buffer.add_char buf '"';
    Buffer.add_string buf (Obs.json_escape k);
    Buffer.add_string buf "\": ";
    Buffer.add_string buf v
  in
  if ev.logical >= 0 then arg "logical" (string_of_int ev.logical);
  (match ev.span with
  | None -> ()
  | Some c ->
    arg "trace_id" ("\"" ^ c.trace_id ^ "\"");
    arg "span" (Printf.sprintf "\"%x\"" c.span_id);
    if c.parent_id <> 0 then arg "parent" (Printf.sprintf "\"%x\"" c.parent_id));
  List.iter (fun (k, v) -> arg k (Obs.json_of_value v)) ev.attrs;
  (match ev.kind with Sample v -> arg "value" (Obs.json_float v) | _ -> ());
  Buffer.add_string buf "}}"

(* Chrome flow records: same (name, cat, id) triple binds a start to
   its finish.  Anchored at the event's own coordinates. *)
let add_flow_record buf ~sep ~ph ~id ev =
  Printf.bprintf buf
    "{\"name\": \"span\", \"cat\": \"trace\", \"ph\": \"%s\", %s\"id\": \"0x%x\", \
     \"ts\": %s, \"pid\": %d, \"tid\": %d}%s"
    ph (if ph = "f" then "\"bp\": \"e\", " else "") id (Obs.json_float ev.ts_us)
    (Lazy.force pid) ev.tid sep

(* The event as JSON plus any flow records it implies, each followed
   by [sep]: a span Begin opens a flow anchor under its own id and,
   when parented, closes the parent's flow into itself — which is what
   draws the cross-process arrow once traces are merged. *)
let add_json_lines ?(sep = "\n") buf ev =
  add_json_of_event buf ev;
  Buffer.add_string buf sep;
  match (ev.kind, ev.span) with
  | Begin, Some c ->
    add_flow_record buf ~sep ~ph:"s" ~id:c.span_id ev;
    if c.parent_id <> 0 then add_flow_record buf ~sep ~ph:"f" ~id:c.parent_id ev
  | _ -> ()

(* One trace event per line: greppable, streamable, jq-friendly.  The
   scratch buffer is owned by the sink; [Obs.emit] serialises calls. *)
let jsonl oc =
  let buf = Buffer.create 512 in
  {
    emit =
      (fun ev ->
        Buffer.clear buf;
        add_json_lines buf ev;
        Buffer.output_buffer oc buf);
    close = (fun () -> flush oc);
  }

(* The Chrome trace-event envelope over a list of already-built
   events; also used to render Parallel.schedule lanes. *)
let chrome_json_of_events ?(lane_names = []) events =
  let sep = ",\n  " in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [";
  List.iter
    (fun (tid, name) ->
      Printf.bprintf buf
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, \
         \"args\": {\"name\": \"%s\"}}%s"
        (Lazy.force pid) tid (Obs.json_escape name) sep)
    lane_names;
  List.iter (add_json_lines ~sep buf) events;
  (* the last record's separator *)
  if lane_names <> [] || events <> [] then
    Buffer.truncate buf (Buffer.length buf - String.length sep);
  Buffer.add_string buf "],\n\"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

(* Buffers everything and writes one well-formed JSON document on
   close -- the format chrome://tracing and Perfetto load directly. *)
let chrome oc =
  let events = ref [] in
  {
    emit = (fun ev -> events := ev :: !events);
    close =
      (fun () ->
        output_string oc (chrome_json_of_events (List.rev !events));
        flush oc);
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let of_format format oc =
  match format with Text -> text oc | Jsonl -> jsonl oc | Chrome -> chrome oc

(* The sink owns the channel: closing the sink closes the file. *)
let to_file ~format path =
  let oc = open_out path in
  let sink = of_format format oc in
  { sink with close = (fun () -> sink.close (); close_out oc) }
