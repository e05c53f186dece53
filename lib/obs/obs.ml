(* Structured tracing for the flow engine and the serving stack.

   The runtime emits *events* -- span begin/end pairs, complete
   (pre-timed) durations, instants and counter samples -- into a single
   process-wide *sink*.  Each event carries an absolute wall-clock
   timestamp in microseconds (so traces from several processes line up
   on one timeline), the engine's logical clock when one applies, a
   lane id (machine / domain / connection) and free-form key/value
   attributes.

   Events may also carry a *span context*: a process-spanning trace id
   plus a span id and parent span id.  Contexts form a tree; the
   current context is tracked per thread, and [with_span] pushes a
   child context for the dynamic extent of its thunk.  A context can
   be serialised into a compact header token ([span_ctx_to_token]) and
   revived on the far side of a socket, which is how one request's
   journey is stitched across client, server and follower processes.

   The default sink is absent: every instrumentation site guards on
   [enabled ()], so a disabled trace costs exactly one branch and
   produces no allocation.  Emission is serialised by an internal
   mutex, so server and client threads may share one sink safely. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type attrs = (string * value) list

type kind =
  | Begin               (* span opens; must be balanced by [End] *)
  | End
  | Complete of float   (* a span measured by the caller: duration in us *)
  | Instant
  | Sample of float     (* a counter/gauge sample *)

type span_ctx = {
  trace_id : string;    (* 16 lowercase hex digits, shared by a whole trace *)
  span_id : int;        (* nonzero, unique within the trace *)
  parent_id : int;      (* 0 for a root span *)
}

type event = {
  kind : kind;
  name : string;
  cat : string;     (* coarse subsystem: engine, store, server, ... *)
  ts_us : float;    (* absolute wall clock, us since the Unix epoch *)
  logical : int;    (* engine logical clock; -1 when not applicable *)
  tid : int;        (* lane: simulated machine, domain, connection, ... *)
  span : span_ctx option;
  attrs : attrs;
}

type sink = {
  emit : event -> unit;
  close : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* The process-wide sink                                               *)
(* ------------------------------------------------------------------ *)

(* One mutex serialises sink installation and every emission, so sinks
   need no locking of their own even when server threads emit. *)
let sink_mutex = Mutex.create ()
let current : sink option ref = ref None

let enabled () = !current <> None

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let set_sink sink =
  with_lock sink_mutex (fun () ->
      (match !current with Some s -> s.close () | None -> ());
      current := Some sink)

let clear_sink () =
  with_lock sink_mutex (fun () ->
      match !current with
      | Some s ->
        current := None;
        s.close ()
      | None -> ())

let now_us () = Unix.gettimeofday () *. 1e6

let emit ev =
  if !current <> None then
    with_lock sink_mutex (fun () ->
        match !current with Some s -> s.emit ev | None -> ())

(* ------------------------------------------------------------------ *)
(* Span identity and the per-thread current context                    *)
(* ------------------------------------------------------------------ *)

(* Ids must be unique across processes (a client, a primary and a
   follower all mint spans of one trace), so seed from the pid and the
   clock.  Draws are serialised by a mutex: Random.State is not
   thread-safe. *)
let id_mutex = Mutex.create ()

let id_state =
  lazy
    (Random.State.make
       [|
         Unix.getpid ();
         int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFF;
         int_of_float (Unix.gettimeofday () *. 1e9) land 0x3FFFFFFF;
       |])

let random_bits bits =
  with_lock id_mutex (fun () ->
      let st = Lazy.force id_state in
      let rec go acc got =
        if got >= bits then acc
        else go ((acc lsl 30) lor Random.State.bits st) (got + 30)
      in
      go 0 0 land ((1 lsl bits) - 1))

let fresh_span_id () =
  let rec nonzero () =
    let id = random_bits 60 in
    if id = 0 then nonzero () else id
  in
  nonzero ()

let fresh_trace_id () = Printf.sprintf "%016x" (random_bits 60)

(* The current span per thread.  Entries are removed when a span pops
   back to [None], so the table stays small. *)
let ctx_mutex = Mutex.create ()
let ctx_table : (int, span_ctx) Hashtbl.t = Hashtbl.create 16

let current_span () =
  let tid = Thread.id (Thread.self ()) in
  with_lock ctx_mutex (fun () -> Hashtbl.find_opt ctx_table tid)

let set_current_span ctx =
  let tid = Thread.id (Thread.self ()) in
  with_lock ctx_mutex (fun () ->
      match ctx with
      | Some c -> Hashtbl.replace ctx_table tid c
      | None -> Hashtbl.remove ctx_table tid)

let with_current_span ctx f =
  let saved = current_span () in
  set_current_span (Some ctx);
  Fun.protect ~finally:(fun () -> set_current_span saved) f

let new_root () =
  { trace_id = fresh_trace_id (); span_id = fresh_span_id (); parent_id = 0 }

let child_of parent =
  {
    trace_id = parent.trace_id;
    span_id = fresh_span_id ();
    parent_id = parent.span_id;
  }

(* ------------------------------------------------------------------ *)
(* The trace-context header token: t=<trace_id>.<span_id-hex>          *)
(* ------------------------------------------------------------------ *)

let span_ctx_to_token ctx = Printf.sprintf "t=%s.%x" ctx.trace_id ctx.span_id

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let span_ctx_of_token s =
  if String.length s < 2 || not (String.sub s 0 2 = "t=") then None
  else
    let body = String.sub s 2 (String.length s - 2) in
    match String.index_opt body '.' with
    | None -> None
    | Some dot ->
      let tr = String.sub body 0 dot in
      let sp = String.sub body (dot + 1) (String.length body - dot - 1) in
      if String.length tr = 16 && is_hex tr && is_hex sp
         && String.length sp <= 15 then
        match int_of_string_opt ("0x" ^ sp) with
        | Some id when id > 0 ->
          (* the receiving side parents its spans under the sender's *)
          Some { trace_id = tr; span_id = id; parent_id = 0 }
        | _ -> None
      else None

(* ------------------------------------------------------------------ *)
(* Emission helpers (all no-ops when no sink is installed)             *)
(* ------------------------------------------------------------------ *)

(* [?span] defaults to the calling thread's current context, so
   instants and completes emitted inside a [with_span] join its trace
   without every call site threading a context. *)
let event ?(cat = "") ?(logical = -1) ?(tid = 0) ?span ?(attrs = []) kind name
    =
  let span = match span with Some _ as s -> s | None -> current_span () in
  { kind; name; cat; ts_us = now_us (); logical; tid; span; attrs }

let complete ?cat ?logical ?tid ?span ?attrs ~dur_us name =
  if enabled () then
    emit (event ?cat ?logical ?tid ?span ?attrs (Complete dur_us) name)

let instant ?cat ?logical ?tid ?span ?attrs name =
  if enabled () then emit (event ?cat ?logical ?tid ?span ?attrs Instant name)

let sample ?cat ?logical ?tid name v =
  if enabled () then emit (event ?cat ?logical ?tid (Sample v) name)

(* Balanced even when [f] raises: the End event is emitted from a
   [Fun.protect] finalizer.  When tracing is on, the span gets a fresh
   context — a child of [?parent] if given, else of the thread's
   current span, else a new root — installed for the thunk's extent. *)
let with_span ?cat ?logical ?tid ?parent ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let ctx =
      match parent with
      | Some p -> child_of p
      | None -> (
        match current_span () with
        | Some p -> child_of p
        | None -> new_root ())
    in
    emit (event ?cat ?logical ?tid ~span:ctx ?attrs Begin name);
    with_current_span ctx (fun () ->
        Fun.protect
          ~finally:(fun () ->
            emit (event ?cat ?logical ?tid ~span:ctx End name))
          f)
  end

(* ------------------------------------------------------------------ *)
(* JSON helpers shared by the sinks and the metrics registry           *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity literals.  The integer cutoff sits at
   2^53-ish so absolute-microsecond timestamps (~1.8e15 in 2026) still
   print exactly. *)
let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 9e15 then
    Printf.sprintf "%.0f" f
  else if Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.6g" f

let json_of_value = function
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Bool b -> string_of_bool b

let pp_value ppf = function
  | Str s -> Format.pp_print_string ppf s
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b
