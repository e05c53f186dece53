(** Structured tracing for the flow engine and the serving stack.

    Instrumentation sites emit {!event}s into one process-wide
    {!sink}.  With no sink installed (the default) every helper is a
    single branch, so disabled tracing is free and leaves engine
    behaviour byte-identical.

    Emission is serialised by an internal mutex: sinks may be driven
    from any thread (server connection threads, the one leading a group
    commit, the replication sender) without their own locking.

    Events may carry a {!span_ctx} — a trace id shared across
    processes plus span/parent ids forming a tree.  The current
    context is tracked per thread; {!with_span} pushes a child context
    for its thunk, and {!span_ctx_to_token}/{!span_ctx_of_token} carry
    a context across a socket in a compact header token. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type attrs = (string * value) list

type kind =
  | Begin               (** span opens; balanced by [End] *)
  | End
  | Complete of float   (** caller-measured span: duration in us *)
  | Instant
  | Sample of float     (** counter/gauge sample *)

type span_ctx = {
  trace_id : string;  (** 16 lowercase hex digits, shared by the trace *)
  span_id : int;      (** nonzero, unique within the trace *)
  parent_id : int;    (** 0 for a root span *)
}

type event = {
  kind : kind;
  name : string;
  cat : string;    (** coarse subsystem: engine, store, server, ... *)
  ts_us : float;   (** absolute wall clock, us since the Unix epoch *)
  logical : int;   (** engine logical clock; -1 when not applicable *)
  tid : int;       (** lane: simulated machine, domain, connection, ... *)
  span : span_ctx option;
  attrs : attrs;
}

type sink = {
  emit : event -> unit;
  close : unit -> unit;
}

val enabled : unit -> bool
(** Is a sink installed?  The one branch disabled tracing costs. *)

val set_sink : sink -> unit
(** Install the process-wide sink (closing any previous one). *)

val clear_sink : unit -> unit
(** Remove and close the current sink, if any. *)

val now_us : unit -> float
(** Absolute wall-clock microseconds (since the Unix epoch), so traces
    from different processes share one timeline. *)

val emit : event -> unit
(** Hand an event to the sink (serialised; safe from any thread). *)

val event :
  ?cat:string -> ?logical:int -> ?tid:int -> ?span:span_ctx ->
  ?attrs:attrs -> kind -> string -> event
(** Build an event stamped with {!now_us}.  [?span] defaults to the
    calling thread's current context. *)

(** {1 Span identity} *)

val new_root : unit -> span_ctx
(** A fresh root context: new trace, no parent. *)

val current_span : unit -> span_ctx option
(** The calling thread's current span context, if any. *)

val span_ctx_to_token : span_ctx -> string
(** Wire form: [t=<trace_id>.<span_id-hex>] — fits a frame header. *)

val span_ctx_of_token : string -> span_ctx option
(** Parse the wire form; the result has [parent_id = 0] and the
    receiver parents its own spans under [span_id].  [None] on
    malformed input. *)

(** {1 Emission helpers} *)

val complete :
  ?cat:string -> ?logical:int -> ?tid:int -> ?span:span_ctx ->
  ?attrs:attrs -> dur_us:float -> string -> unit
(** A caller-measured duration: one self-contained span event. *)

val instant :
  ?cat:string -> ?logical:int -> ?tid:int -> ?span:span_ctx ->
  ?attrs:attrs -> string -> unit

val sample : ?cat:string -> ?logical:int -> ?tid:int -> string -> float -> unit

val with_span :
  ?cat:string -> ?logical:int -> ?tid:int -> ?parent:span_ctx ->
  ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span; the [End] event is emitted even when
    the thunk raises.  When tracing is enabled the span gets a fresh
    context — a child of [?parent] if given, else of the thread's
    current span, else a new root — installed as the thread's current
    context for the thunk's extent. *)

(** {1 JSON helpers} (shared by sinks, metrics and schedule export) *)

val json_escape : string -> string
val json_float : float -> string
val json_of_value : value -> string
val pp_value : Format.formatter -> value -> unit
