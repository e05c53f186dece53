(** Sink implementations for {!Obs}: human-readable text, JSON-lines,
    Chrome trace-event format, and an in-memory recorder. *)

type format = Text | Jsonl | Chrome

val memory : unit -> Obs.sink * (unit -> Obs.event list)
(** A recording sink and a function returning the events recorded so
    far, oldest first. *)

val text : out_channel -> Obs.sink
(** Indented human-readable lines, one per event. *)

val jsonl : out_channel -> Obs.sink
(** One Chrome-style trace event object per line. *)

val chrome : out_channel -> Obs.sink
(** Buffers all events and writes one [{"traceEvents": [...]}]
    document on close; loadable in chrome://tracing and Perfetto. *)

val chrome_json_of_events :
  ?lane_names:(int * string) list -> Obs.event list -> string
(** The Chrome envelope over pre-built events; [lane_names] adds
    thread-name metadata for the given tids (used to label
    per-machine lanes of a {e schedule}). *)

val to_file : format:format -> string -> Obs.sink
(** Opens the file now; closing the sink closes the file. *)
