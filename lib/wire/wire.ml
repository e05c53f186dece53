(* The Hercules design-server wire protocol: length-prefixed binary
   frames over a stream socket.

   Every frame, in both directions and from the hello on, is a fixed
   header (0xD8 magic, a flags byte, a u32-LE body length, then the
   flagged optional deadline and trace fields) followed by a
   tag-byte-dispatched body of fixed-width little-endian ints and
   length-delimited strings.  Design-object values, journal frames and
   snapshot chunks ride as opaque byte slices the codec never
   re-encodes.  A frame that does not start with the magic is refused
   with a typed error; a peer that still speaks the retired
   "ddf1 <len>" s-expression framing learns that this side speaks
   protocol v9 only.

   The s-expression forms below are not a transport: they are the
   text language of `hercules remote batch`, which reads requests with
   [request_of_sexp] and prints answers with [response_to_sexp]. *)

open Ddf_store
module S = Ddf_persist.Sexp
module W = Ddf_persist.Workspace_file
module E = Ddf_core.Error
module Fault = Ddf_fault.Fault

exception Wire_error of string

let wire_errorf fmt = Format.kasprintf (fun s -> raise (Wire_error s)) fmt

type iid = Store.iid

(* The hello travels as a binary frame like everything else, and a
   server accepts exactly this version. *)
let protocol_version = 9

(* Streamed snapshots travel in bounded chunks: big enough to amortise
   framing, small enough that neither peer ever buffers more than a few
   of them. *)
let snapshot_chunk_bytes = 256 * 1024

type catalog = Entities | Tools | Flows

type request =
  | Hello of { user : string; version : int }
  | Ping
  | Stat
  | Catalog of catalog
  | Browse of Store.filter
  | Install of {
      entity : string;
      label : string;
      keywords : string list;
      value : S.t;
    }
  | Annotate of {
      iid : iid;
      label : string option;
      comment : string option;
      keywords : string list option;
    }
  | Start_goal of string
  | Start_data of iid
  | Expand of int
  | Specialize of int * string
  | Select of int * iid list
  | Node_browse of int * Store.filter
  | Leaves
  | Run of int
  | Render
  | Recall of iid
  | Trace of iid
  | Uses of iid
  | Refresh of iid
  | Save_flow of string
  | Load_flow of string
  | Shutdown
  | Subscribe of int
  | Repl_ack of int
  | Lag
  | Compact
  | Metrics
  | Sync_digest
      (** the peer's journal digest, peer cursors and state
          fingerprint — the anti-entropy handshake *)
  | Sync_frames of { after : int; limit : int }
      (** pull at most [limit] wal frames with seqno > [after] *)
  | Sync_ack of { origin : string; upto : int; frames : (int * string * string) list }
      (** deliver a batch of [origin]'s frames [(seqno, md5, payload)]
          for application and advance the origin cursor to [upto]; an
          empty batch just acknowledges *)
  | Conflicts
  | Resolve of { conflict : int; winner : iid }
  | Snapshot_export
      (** compact, then stream the on-disk snapshot back as
          begin/chunk/end frames — the bounded-memory bootstrap verb
          (handled at connection level like [Subscribe]) *)
  | Batch of request list
      (** A pipeline: the requests are executed in order and answered
          positionally by one [Ok_batch], one frame each way.  An inner
          failure yields an [Error] at its position; execution
          continues (the journal has no rollback).  See
          [max_batch_depth] for nesting. *)

type stat = {
  st_role : string;
  st_seq : int;
  st_clock : int;
  st_instances : int;
  st_records : int;
  st_store_tick : int;
  st_history_tick : int;
  st_uptime_s : float;
}

type instance_row = {
  row_iid : iid;
  row_entity : string;
  row_meta : Store.meta;
}

type lag_row = {
  lag_follower : string;
  lag_acked : int;
  lag_sent : int;
}

type conflict_row = {
  cf_id : int;
  cf_base : iid;
  cf_ours : iid;
  cf_theirs : iid;
  cf_origin : string;
  cf_at : int;
  cf_winner : iid option;
}

type sync_stats = {
  sy_applied : int;   (** frames whose effects were new here *)
  sy_skipped : int;   (** frames deduplicated as already present *)
  sy_conflicts : int; (** divergences registered while applying *)
  sy_cursor : int;    (** origin seqno applied through, persisted *)
}

type response =
  | Ok_unit
  | Ok_int of int
  | Ok_ints of int list
  | Ok_atoms of string list
  | Ok_text of string
  | Ok_nodes of (int * string) list
  | Ok_rows of instance_row list
  | Ok_stat of stat
  | Ok_refresh of { fresh : iid; reran : int; reused : int }
  | Ok_snapshot_begin of { seq : int; bytes : int }
      (** a streamed snapshot follows: [bytes] of workspace save taken
          at [seq], in {!snapshot_chunk_bytes}-bounded chunks *)
  | Ok_snapshot_chunk of { data : string }
  | Ok_snapshot_end of { digest : string }
      (** md5 hex over the whole reassembled snapshot *)
  | Ok_frame of { seq : int; payload : string; digest : string }
  | Ok_lags of { primary_seq : int; rows : lag_row list }
  | Ok_metrics of Ddf_obs.Metrics.metric list
  | Ok_digest of {
      wsid : string;
      base : int;
      seq : int;
      fingerprint : string;
          (** canonical identity-independent state digest: equal
              fingerprints mean converged stores/histories *)
      cursors : (string * int) list;  (** origin wsid -> applied seqno *)
      entries : (int * string) list;  (** seqno -> frame md5, ascending *)
    }
  | Ok_frames of (int * string * string) list  (** (seqno, md5, payload) *)
  | Ok_sync of sync_stats
  | Ok_conflicts of conflict_row list
  | Ok_batch of response list
  | Error of E.t

(* ------------------------------------------------------------------ *)
(* Requests: the `remote batch` text form                              *)
(* ------------------------------------------------------------------ *)

(* Optional filter fields are present-or-absent fields of one
   (filter ...) form. *)
let filter_of_sexp sexp =
  match S.as_list sexp with
  | S.Atom "filter" :: fields ->
    let opt name f =
      Option.map (fun items -> f (S.one name items))
        (S.find_field_opt fields name)
    in
    {
      Store.f_entities =
        Option.map (List.map S.as_atom) (S.find_field_opt fields "entities");
      f_user = opt "user" S.as_atom;
      f_from = opt "from" S.as_int;
      f_to = opt "to" S.as_int;
      f_keywords =
        (match S.find_field_opt fields "keywords" with
        | Some ks -> List.map S.as_atom ks
        | None -> []);
      f_text = opt "text" S.as_atom;
    }
  | _ -> wire_errorf "malformed filter"

let rec request_of_sexp sexp =
  match sexp with
  | S.Atom "ping" -> Ping
  | S.Atom "stat" -> Stat
  | S.Atom "leaves" -> Leaves
  | S.Atom "render" -> Render
  | S.Atom "shutdown" -> Shutdown
  | S.Atom "lag" -> Lag
  | S.Atom "compact" -> Compact
  | S.Atom "metrics" -> Metrics
  | S.Atom "sync-digest" -> Sync_digest
  | S.Atom "conflicts" -> Conflicts
  | S.Atom "snapshot-export" -> Snapshot_export
  | S.List (S.Atom name :: args) -> (
    match (name, args) with
    | "hello", [ user; S.List [ S.Atom "version"; v ] ] ->
      Hello { user = S.as_atom user; version = S.as_int v }
    | "catalog", [ S.Atom "entities" ] -> Catalog Entities
    | "catalog", [ S.Atom "tools" ] -> Catalog Tools
    | "catalog", [ S.Atom "flows" ] -> Catalog Flows
    | "browse", [ f ] -> Browse (filter_of_sexp f)
    | "install", [ entity; label; keywords; value ] ->
      Install
        { entity = S.as_atom entity; label = S.as_atom label;
          keywords = List.map S.as_atom (S.as_list keywords); value }
    | "annotate", iid :: fields ->
      let opt name f =
        Option.map (fun items -> f (S.one name items))
          (S.find_field_opt fields name)
      in
      Annotate
        { iid = S.as_int iid; label = opt "label" S.as_atom;
          comment = opt "comment" S.as_atom;
          keywords =
            Option.map (List.map S.as_atom) (S.find_field_opt fields "keywords") }
    | "start-goal", [ e ] -> Start_goal (S.as_atom e)
    | "start-data", [ iid ] -> Start_data (S.as_int iid)
    | "expand", [ nid ] -> Expand (S.as_int nid)
    | "specialize", [ nid; sub ] -> Specialize (S.as_int nid, S.as_atom sub)
    | "select", [ nid; iids ] ->
      Select (S.as_int nid, List.map S.as_int (S.as_list iids))
    | "node-browse", [ nid; f ] -> Node_browse (S.as_int nid, filter_of_sexp f)
    | "run", [ nid ] -> Run (S.as_int nid)
    | "recall", [ iid ] -> Recall (S.as_int iid)
    | "trace", [ iid ] -> Trace (S.as_int iid)
    | "uses", [ iid ] -> Uses (S.as_int iid)
    | "refresh", [ iid ] -> Refresh (S.as_int iid)
    | "save-flow", [ n ] -> Save_flow (S.as_atom n)
    | "load-flow", [ n ] -> Load_flow (S.as_atom n)
    | "subscribe", [ seq ] -> Subscribe (S.as_int seq)
    | "repl-ack", [ seq ] -> Repl_ack (S.as_int seq)
    | "sync-frames", [ after; limit ] ->
      Sync_frames { after = S.as_int after; limit = S.as_int limit }
    | "sync-ack", origin :: upto :: frames ->
      Sync_ack
        { origin = S.as_atom origin; upto = S.as_int upto;
          frames =
            List.map
              (fun s ->
                match S.as_list s with
                | [ seq; digest; payload ] ->
                  (S.as_int seq, S.as_atom digest, S.as_atom payload)
                | _ -> wire_errorf "malformed sync frame")
              frames }
    | "resolve", [ conflict; winner ] ->
      Resolve { conflict = S.as_int conflict; winner = S.as_int winner }
    | "batch", reqs -> Batch (List.map request_of_sexp reqs)
    | _ -> wire_errorf "unknown request %S" name)
  | _ -> wire_errorf "malformed request"

let hello user = Hello { user; version = protocol_version }

let request_name = function
  | Hello _ -> "hello"
  | Ping -> "ping"
  | Stat -> "stat"
  | Catalog _ -> "catalog"
  | Browse _ -> "browse"
  | Install _ -> "install"
  | Annotate _ -> "annotate"
  | Start_goal _ -> "start-goal"
  | Start_data _ -> "start-data"
  | Expand _ -> "expand"
  | Specialize _ -> "specialize"
  | Select _ -> "select"
  | Node_browse _ -> "node-browse"
  | Leaves -> "leaves"
  | Run _ -> "run"
  | Render -> "render"
  | Recall _ -> "recall"
  | Trace _ -> "trace"
  | Uses _ -> "uses"
  | Refresh _ -> "refresh"
  | Save_flow _ -> "save-flow"
  | Load_flow _ -> "load-flow"
  | Shutdown -> "shutdown"
  | Subscribe _ -> "subscribe"
  | Repl_ack _ -> "repl-ack"
  | Lag -> "lag"
  | Compact -> "compact"
  | Metrics -> "metrics"
  | Sync_digest -> "sync-digest"
  | Sync_frames _ -> "sync-frames"
  | Sync_ack _ -> "sync-ack"
  | Conflicts -> "conflicts"
  | Resolve _ -> "resolve"
  | Snapshot_export -> "snapshot-export"
  | Batch _ -> "batch"

(* Mutations of the shared store/history/clock go through the
   single-writer loop; everything else (including task-window editing,
   which touches only the per-connection session) is a read.  Compact
   counts as a mutation (it rewrites the journal's snapshot); Subscribe
   and Repl_ack never reach the evaluator — the server's connection
   loop handles replication mode itself.  A batch is a mutation iff
   any member is: the whole pipeline then runs as one writer job, so
   its writes group-commit together. *)
let rec is_mutation = function
  | Install _ | Annotate _ | Run _ | Recall _ | Refresh _ | Compact -> true
  (* the digest and frame pulls are reads of the wal FILE, which only
     the writer loop may touch (like [Subscribe]'s backlog read) — so
     they ride the writer too, not just the actual sync mutations *)
  | Sync_digest | Sync_frames _ | Sync_ack _ | Resolve _ -> true
  | Batch reqs -> List.exists is_mutation reqs
  (* Snapshot_export never reaches the evaluator either — the
     connection loop streams it itself (its compact runs as a writer
     job inside that handler) *)
  | Hello _ | Ping | Stat | Catalog _ | Browse _ | Start_goal _ | Start_data _
  | Expand _ | Specialize _ | Select _ | Node_browse _ | Leaves | Render
  | Trace _ | Uses _ | Save_flow _ | Load_flow _ | Shutdown | Subscribe _
  | Repl_ack _ | Lag | Metrics | Conflicts | Snapshot_export ->
    false

(* ------------------------------------------------------------------ *)
(* Responses: the `remote batch` printed form                          *)
(* ------------------------------------------------------------------ *)

(* One tagged form per metric: (c <name> <count>), (g <name> <value>),
   (h <name> <n> <sum> <min> <max> <p50> <p90> <p99>).  [S.float]
   prints hex floats, so the printed values are exact. *)
module M = Ddf_obs.Metrics

let metric_to_sexp = function
  | M.Counter (n, v) -> S.list [ S.atom "c"; S.atom n; S.int v ]
  | M.Gauge (n, v) -> S.list [ S.atom "g"; S.atom n; S.float v ]
  | M.Histogram (n, h) ->
    S.list
      [ S.atom "h"; S.atom n; S.int h.M.hs_n; S.float h.M.hs_sum;
        S.float h.M.hs_min; S.float h.M.hs_max; S.float h.M.hs_p50;
        S.float h.M.hs_p90; S.float h.M.hs_p99 ]

let row_to_sexp r =
  S.list [ S.int r.row_iid; S.atom r.row_entity; W.meta_to_sexp r.row_meta ]

let rec response_to_sexp = function
  | Ok_unit -> S.atom "ok"
  | Ok_int n -> S.field "ok-int" [ S.int n ]
  | Ok_ints ns -> S.field "ok-ints" (List.map S.int ns)
  | Ok_atoms l -> S.field "ok-atoms" (List.map S.atom l)
  | Ok_text t -> S.field "ok-text" [ S.atom t ]
  | Ok_nodes l ->
    S.field "ok-nodes"
      (List.map (fun (nid, e) -> S.list [ S.int nid; S.atom e ]) l)
  | Ok_rows rows -> S.field "ok-rows" (List.map row_to_sexp rows)
  | Ok_stat st ->
    S.field "ok-stat"
      [ S.atom st.st_role; S.int st.st_seq; S.int st.st_clock;
        S.int st.st_instances; S.int st.st_records; S.int st.st_store_tick;
        S.int st.st_history_tick; S.float st.st_uptime_s ]
  | Ok_refresh { fresh; reran; reused } ->
    S.field "ok-refresh" [ S.int fresh; S.int reran; S.int reused ]
  | Ok_snapshot_begin { seq; bytes } ->
    S.field "ok-snapshot-begin" [ S.int seq; S.int bytes ]
  | Ok_snapshot_chunk { data } -> S.field "ok-snapshot-chunk" [ S.atom data ]
  | Ok_snapshot_end { digest } -> S.field "ok-snapshot-end" [ S.atom digest ]
  | Ok_frame { seq; payload; digest } ->
    S.field "ok-frame" [ S.int seq; S.atom digest; S.atom payload ]
  | Ok_lags { primary_seq; rows } ->
    S.field "ok-lags"
      (S.int primary_seq
      :: List.map
           (fun r ->
             S.list
               [ S.atom r.lag_follower; S.int r.lag_acked; S.int r.lag_sent ])
           rows)
  | Ok_metrics ms -> S.field "ok-metrics" (List.map metric_to_sexp ms)
  | Ok_digest { wsid; base; seq; fingerprint; cursors; entries } ->
    S.field "ok-digest"
      [ S.atom wsid; S.int base; S.int seq; S.atom fingerprint;
        S.list
          (List.map (fun (o, n) -> S.list [ S.atom o; S.int n ]) cursors);
        S.list
          (List.map (fun (s, d) -> S.list [ S.int s; S.atom d ]) entries) ]
  | Ok_frames frames ->
    S.field "ok-frames"
      (List.map
         (fun (seq, digest, payload) ->
           S.list [ S.int seq; S.atom digest; S.atom payload ])
         frames)
  | Ok_sync { sy_applied; sy_skipped; sy_conflicts; sy_cursor } ->
    S.field "ok-sync"
      [ S.int sy_applied; S.int sy_skipped; S.int sy_conflicts;
        S.int sy_cursor ]
  | Ok_conflicts rows ->
    S.field "ok-conflicts"
      (List.map
         (fun c ->
           S.list
             [ S.int c.cf_id; S.int c.cf_base; S.int c.cf_ours;
               S.int c.cf_theirs; S.atom c.cf_origin; S.int c.cf_at;
               (match c.cf_winner with None -> S.atom "-" | Some w -> S.int w) ])
         rows)
  | Ok_batch resps -> S.field "ok-batch" (List.map response_to_sexp resps)
  | Error e ->
    S.field "error"
      (S.atom (E.code_to_string e.E.code)
       :: S.atom e.E.message
       :: S.atom (if e.E.retryable then "retryable" else "final")
       :: ((match e.E.retry_after with
           | Some after -> [ S.field "retry-after" [ S.float after ] ]
           | None -> [])
          @
          match e.E.context with
          | [] -> []
          | ctx ->
            [ S.field "ctx"
                (List.map
                   (fun (k, v) -> S.list [ S.atom k; S.atom v ])
                   ctx) ]))

(* ------------------------------------------------------------------ *)
(* The binary codec                                                    *)
(* ------------------------------------------------------------------ *)

(* Wire traffic accounting: encode/decode latency per frame and bytes
   moved each way.  Surfaced through the Metrics verb, `remote
   metrics` and `hercules top` like every other registry metric. *)
let m_bytes_out = M.counter "wire.bytes_out"
let m_bytes_in = M.counter "wire.bytes_in"
let h_encode = M.histogram "wire.encode_seconds"
let h_decode = M.histogram "wire.decode_seconds"

(* An iovec-style frame list: header buffers interleaved with borrowed
   payload slices.  [gather_write] flushes a whole list with one
   kernel write per socket-buffer fill (the C stub gathers outside the
   OCaml heap and writes with the runtime lock released), so a group
   of frames costs one syscall, not one per frame — and large payload
   bodies are never concatenated through an intermediate string on the
   OCaml side. *)
module Iovec = struct
  type slice = { io_base : string; io_off : int; io_len : int }

  external gather_write : Unix.file_descr -> slice array -> int -> int
    = "ddf_gather_write"

  let of_string s = { io_base = s; io_off = 0; io_len = String.length s }

  let total slices =
    List.fold_left (fun n s -> n + s.io_len) 0 slices

  let concat slices =
    let n = total slices in
    let b = Bytes.create n in
    let off = ref 0 in
    List.iter
      (fun s ->
        Bytes.blit_string s.io_base s.io_off b !off s.io_len;
        off := !off + s.io_len)
      slices;
    Bytes.unsafe_to_string b
end

(* Payload bodies at least this large travel as their own iovec slice
   (zero-copy on the OCaml side); smaller ones are cheaper to append
   to the scratch buffer than to carry as an extra slice. *)
let zero_copy_min = 512

module Enc = struct
  type t = {
    mutable slices : Iovec.slice list;  (* finalized, reversed *)
    buf : Buffer.t;                     (* scratch being filled *)
  }

  let create () = { slices = []; buf = Buffer.create 256 }

  let flush_buf e =
    if Buffer.length e.buf > 0 then begin
      e.slices <- Iovec.of_string (Buffer.contents e.buf) :: e.slices;
      Buffer.clear e.buf
    end

  let u8 e n = Buffer.add_char e.buf (Char.chr (n land 0xff))
  let u32 e n = Buffer.add_int32_le e.buf (Int32.of_int n)
  let int e n = Buffer.add_int64_le e.buf (Int64.of_int n)
  let float e f = Buffer.add_int64_le e.buf (Int64.bits_of_float f)
  let bool e b = u8 e (if b then 1 else 0)

  let str e s =
    u32 e (String.length s);
    Buffer.add_string e.buf s

  (* An opaque payload body: length-delimited raw bytes, borrowed as a
     slice when large — the codec never escapes or re-encodes them. *)
  let payload e s =
    u32 e (String.length s);
    if String.length s >= zero_copy_min then begin
      flush_buf e;
      e.slices <- Iovec.of_string s :: e.slices
    end
    else Buffer.add_string e.buf s

  let opt e f = function
    | None -> u8 e 0
    | Some v ->
      u8 e 1;
      f e v

  let list e f l =
    u32 e (List.length l);
    List.iter (f e) l

  let finish e =
    flush_buf e;
    List.rev e.slices
end

module Dec = struct
  type t = { db : string; mutable pos : int }

  let of_string s = { db = s; pos = 0 }

  let need d n =
    if d.pos + n > String.length d.db then
      wire_errorf "truncated binary frame body (at byte %d)" d.pos

  let u8 d =
    need d 1;
    let v = Char.code d.db.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    need d 4;
    let v = Int32.to_int (String.get_int32_le d.db d.pos) land 0xFFFFFFFF in
    d.pos <- d.pos + 4;
    v

  let int d =
    need d 8;
    let v = Int64.to_int (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let float d =
    need d 8;
    let v = Int64.float_of_bits (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | n -> wire_errorf "bad boolean byte %d" n

  let str d =
    let n = u32 d in
    need d n;
    let v = String.sub d.db d.pos n in
    d.pos <- d.pos + n;
    v

  let payload = str

  let opt d f =
    match u8 d with
    | 0 -> None
    | 1 -> Some (f d)
    | n -> wire_errorf "bad option byte %d" n

  let list d f =
    let n = u32 d in
    (* cheap sanity bound: every item costs at least one byte *)
    need d n;
    List.init n (fun _ -> f d)

  let finished d = d.pos = String.length d.db
end

(* --- binary forms of the shared sub-structures --- *)

let filter_to_bin e (f : Store.filter) =
  Enc.opt e (fun e -> Enc.list e Enc.str) f.Store.f_entities;
  Enc.opt e Enc.str f.Store.f_user;
  Enc.opt e Enc.int f.Store.f_from;
  Enc.opt e Enc.int f.Store.f_to;
  Enc.list e Enc.str f.Store.f_keywords;
  Enc.opt e Enc.str f.Store.f_text

let filter_of_bin d =
  let f_entities = Dec.opt d (fun d -> Dec.list d Dec.str) in
  let f_user = Dec.opt d Dec.str in
  let f_from = Dec.opt d Dec.int in
  let f_to = Dec.opt d Dec.int in
  let f_keywords = Dec.list d Dec.str in
  let f_text = Dec.opt d Dec.str in
  { Store.f_entities; f_user; f_from; f_to; f_keywords; f_text }

let meta_to_bin e (m : Store.meta) =
  Enc.str e m.Store.user;
  Enc.int e m.Store.created_at;
  Enc.str e m.Store.label;
  Enc.str e m.Store.comment;
  Enc.list e Enc.str m.Store.keywords

let meta_of_bin d =
  let user = Dec.str d in
  let created_at = Dec.int d in
  let label = Dec.str d in
  let comment = Dec.str d in
  let keywords = Dec.list d Dec.str in
  { Store.user; created_at; label; comment; keywords }

let sync_frame_to_bin e (seq, digest, payload) =
  Enc.int e seq;
  Enc.str e digest;
  Enc.payload e payload

let sync_frame_of_bin d =
  let seq = Dec.int d in
  let digest = Dec.str d in
  let payload = Dec.payload d in
  (seq, digest, payload)

let pair_to_bin fa fb e (a, b) =
  fa e a;
  fb e b

let pair_of_bin fa fb d =
  let a = fa d in
  let b = fb d in
  (a, b)

let error_to_bin e (err : E.t) =
  Enc.str e (E.code_to_string err.E.code);
  Enc.str e err.E.message;
  Enc.bool e err.E.retryable;
  Enc.opt e Enc.float err.E.retry_after;
  Enc.list e (pair_to_bin Enc.str Enc.str) err.E.context

let error_of_bin d =
  let code =
    match E.code_of_string (Dec.str d) with
    | Some c -> c
    | None -> `Internal (* a code minted by a newer peer *)
  in
  let message = Dec.str d in
  let retryable = Dec.bool d in
  let retry_after = Dec.opt d Dec.float in
  let context = Dec.list d (pair_of_bin Dec.str Dec.str) in
  E.make ~context ~retryable ?retry_after code message

let metric_to_bin e = function
  | M.Counter (n, v) ->
    Enc.u8 e 0;
    Enc.str e n;
    Enc.int e v
  | M.Gauge (n, v) ->
    Enc.u8 e 1;
    Enc.str e n;
    Enc.float e v
  | M.Histogram (n, h) ->
    Enc.u8 e 2;
    Enc.str e n;
    Enc.int e h.M.hs_n;
    Enc.float e h.M.hs_sum;
    Enc.float e h.M.hs_min;
    Enc.float e h.M.hs_max;
    Enc.float e h.M.hs_p50;
    Enc.float e h.M.hs_p90;
    Enc.float e h.M.hs_p99

let metric_of_bin d =
  match Dec.u8 d with
  | 0 ->
    let n = Dec.str d in
    let v = Dec.int d in
    M.Counter (n, v)
  | 1 ->
    let n = Dec.str d in
    let v = Dec.float d in
    M.Gauge (n, v)
  | 2 ->
    let n = Dec.str d in
    let hs_n = Dec.int d in
    let hs_sum = Dec.float d in
    let hs_min = Dec.float d in
    let hs_max = Dec.float d in
    let hs_p50 = Dec.float d in
    let hs_p90 = Dec.float d in
    let hs_p99 = Dec.float d in
    M.Histogram
      (n, { M.hs_n; hs_sum; hs_min; hs_max; hs_p50; hs_p90; hs_p99 })
  | t -> wire_errorf "unknown binary metric tag %d" t

let catalog_to_bin = function Entities -> 0 | Tools -> 1 | Flows -> 2

let catalog_of_bin = function
  | 0 -> Entities
  | 1 -> Tools
  | 2 -> Flows
  | t -> wire_errorf "unknown catalog tag %d" t

(* A batch may hold a batch (the server answers it positionally with
   "batch requests do not nest"), but nothing deeper: the decoders
   recurse once per level, so an unbounded depth would let one frame
   exhaust the stack. *)
let max_batch_depth = 2

let enter_batch depth =
  if depth >= max_batch_depth then
    wire_errorf "batch nested deeper than %d levels" max_batch_depth;
  depth + 1

(* --- requests --- *)

(* Tag bytes are append-only protocol surface: never renumber. *)
let rec request_to_bin e = function
  | Hello { user; version } ->
    Enc.u8 e 1;
    Enc.str e user;
    Enc.int e version
  | Ping -> Enc.u8 e 2
  | Stat -> Enc.u8 e 3
  | Catalog c ->
    Enc.u8 e 4;
    Enc.u8 e (catalog_to_bin c)
  | Browse f ->
    Enc.u8 e 5;
    filter_to_bin e f
  | Install { entity; label; keywords; value } ->
    Enc.u8 e 6;
    Enc.str e entity;
    Enc.str e label;
    Enc.list e Enc.str keywords;
    (* the design-object value rides as one opaque body: printed once
       here, parsed once by the evaluator, never re-framed between *)
    Enc.payload e (S.to_string ~pretty:false value)
  | Annotate { iid; label; comment; keywords } ->
    Enc.u8 e 7;
    Enc.int e iid;
    Enc.opt e Enc.str label;
    Enc.opt e Enc.str comment;
    Enc.opt e (fun e -> Enc.list e Enc.str) keywords
  | Start_goal entity ->
    Enc.u8 e 8;
    Enc.str e entity
  | Start_data iid ->
    Enc.u8 e 9;
    Enc.int e iid
  | Expand nid ->
    Enc.u8 e 10;
    Enc.int e nid
  | Specialize (nid, sub) ->
    Enc.u8 e 11;
    Enc.int e nid;
    Enc.str e sub
  | Select (nid, iids) ->
    Enc.u8 e 12;
    Enc.int e nid;
    Enc.list e Enc.int iids
  | Node_browse (nid, f) ->
    Enc.u8 e 13;
    Enc.int e nid;
    filter_to_bin e f
  | Leaves -> Enc.u8 e 14
  | Run nid ->
    Enc.u8 e 15;
    Enc.int e nid
  | Render -> Enc.u8 e 16
  | Recall iid ->
    Enc.u8 e 17;
    Enc.int e iid
  | Trace iid ->
    Enc.u8 e 18;
    Enc.int e iid
  | Uses iid ->
    Enc.u8 e 19;
    Enc.int e iid
  | Refresh iid ->
    Enc.u8 e 20;
    Enc.int e iid
  | Save_flow name ->
    Enc.u8 e 21;
    Enc.str e name
  | Load_flow name ->
    Enc.u8 e 22;
    Enc.str e name
  | Shutdown -> Enc.u8 e 23
  | Subscribe seq ->
    Enc.u8 e 24;
    Enc.int e seq
  | Repl_ack seq ->
    Enc.u8 e 25;
    Enc.int e seq
  | Lag -> Enc.u8 e 26
  | Compact -> Enc.u8 e 27
  | Metrics -> Enc.u8 e 28
  | Sync_digest -> Enc.u8 e 29
  | Sync_frames { after; limit } ->
    Enc.u8 e 30;
    Enc.int e after;
    Enc.int e limit
  | Sync_ack { origin; upto; frames } ->
    Enc.u8 e 31;
    Enc.str e origin;
    Enc.int e upto;
    Enc.list e sync_frame_to_bin frames
  | Conflicts -> Enc.u8 e 32
  | Resolve { conflict; winner } ->
    Enc.u8 e 33;
    Enc.int e conflict;
    Enc.int e winner
  | Snapshot_export -> Enc.u8 e 34
  | Batch reqs ->
    Enc.u8 e 35;
    Enc.list e request_to_bin reqs

let rec request_of_bin ?(depth = 0) d =
  match Dec.u8 d with
  | 1 ->
    let user = Dec.str d in
    let version = Dec.int d in
    Hello { user; version }
  | 2 -> Ping
  | 3 -> Stat
  | 4 -> Catalog (catalog_of_bin (Dec.u8 d))
  | 5 -> Browse (filter_of_bin d)
  | 6 ->
    let entity = Dec.str d in
    let label = Dec.str d in
    let keywords = Dec.list d Dec.str in
    let value =
      let body = Dec.payload d in
      try S.of_string body
      with S.Sexp_error m -> wire_errorf "install value: %s" m
    in
    Install { entity; label; keywords; value }
  | 7 ->
    let iid = Dec.int d in
    let label = Dec.opt d Dec.str in
    let comment = Dec.opt d Dec.str in
    let keywords = Dec.opt d (fun d -> Dec.list d Dec.str) in
    Annotate { iid; label; comment; keywords }
  | 8 -> Start_goal (Dec.str d)
  | 9 -> Start_data (Dec.int d)
  | 10 -> Expand (Dec.int d)
  | 11 ->
    let nid = Dec.int d in
    let sub = Dec.str d in
    Specialize (nid, sub)
  | 12 ->
    let nid = Dec.int d in
    let iids = Dec.list d Dec.int in
    Select (nid, iids)
  | 13 ->
    let nid = Dec.int d in
    let f = filter_of_bin d in
    Node_browse (nid, f)
  | 14 -> Leaves
  | 15 -> Run (Dec.int d)
  | 16 -> Render
  | 17 -> Recall (Dec.int d)
  | 18 -> Trace (Dec.int d)
  | 19 -> Uses (Dec.int d)
  | 20 -> Refresh (Dec.int d)
  | 21 -> Save_flow (Dec.str d)
  | 22 -> Load_flow (Dec.str d)
  | 23 -> Shutdown
  | 24 -> Subscribe (Dec.int d)
  | 25 -> Repl_ack (Dec.int d)
  | 26 -> Lag
  | 27 -> Compact
  | 28 -> Metrics
  | 29 -> Sync_digest
  | 30 ->
    let after = Dec.int d in
    let limit = Dec.int d in
    Sync_frames { after; limit }
  | 31 ->
    let origin = Dec.str d in
    let upto = Dec.int d in
    let frames = Dec.list d sync_frame_of_bin in
    Sync_ack { origin; upto; frames }
  | 32 -> Conflicts
  | 33 ->
    let conflict = Dec.int d in
    let winner = Dec.int d in
    Resolve { conflict; winner }
  | 34 -> Snapshot_export
  | 35 ->
    let depth = enter_batch depth in
    Batch (Dec.list d (request_of_bin ~depth))
  | t -> wire_errorf "unknown binary request tag %d" t

(* --- responses --- *)

let rec response_to_bin e = function
  | Ok_unit -> Enc.u8 e 1
  | Ok_int n ->
    Enc.u8 e 2;
    Enc.int e n
  | Ok_ints ns ->
    Enc.u8 e 3;
    Enc.list e Enc.int ns
  | Ok_atoms l ->
    Enc.u8 e 4;
    Enc.list e Enc.str l
  | Ok_text t ->
    Enc.u8 e 5;
    Enc.payload e t
  | Ok_nodes l ->
    Enc.u8 e 6;
    Enc.list e (pair_to_bin Enc.int Enc.str) l
  | Ok_rows rows ->
    Enc.u8 e 7;
    Enc.list e
      (fun e r ->
        Enc.int e r.row_iid;
        Enc.str e r.row_entity;
        meta_to_bin e r.row_meta)
      rows
  | Ok_stat st ->
    Enc.u8 e 8;
    Enc.str e st.st_role;
    Enc.int e st.st_seq;
    Enc.int e st.st_clock;
    Enc.int e st.st_instances;
    Enc.int e st.st_records;
    Enc.int e st.st_store_tick;
    Enc.int e st.st_history_tick;
    Enc.float e st.st_uptime_s
  | Ok_refresh { fresh; reran; reused } ->
    Enc.u8 e 9;
    Enc.int e fresh;
    Enc.int e reran;
    Enc.int e reused
  (* tag 10 was the monolithic v≤6 snapshot: retired, never reuse it *)
  | Ok_snapshot_begin { seq; bytes } ->
    Enc.u8 e 11;
    Enc.int e seq;
    Enc.int e bytes
  | Ok_snapshot_chunk { data } ->
    Enc.u8 e 12;
    Enc.payload e data
  | Ok_snapshot_end { digest } ->
    Enc.u8 e 13;
    Enc.str e digest
  | Ok_frame { seq; payload; digest } ->
    Enc.u8 e 14;
    Enc.int e seq;
    Enc.str e digest;
    Enc.payload e payload
  | Ok_lags { primary_seq; rows } ->
    Enc.u8 e 15;
    Enc.int e primary_seq;
    Enc.list e
      (fun e r ->
        Enc.str e r.lag_follower;
        Enc.int e r.lag_acked;
        Enc.int e r.lag_sent)
      rows
  | Ok_metrics ms ->
    Enc.u8 e 16;
    Enc.list e metric_to_bin ms
  | Ok_digest { wsid; base; seq; fingerprint; cursors; entries } ->
    Enc.u8 e 17;
    Enc.str e wsid;
    Enc.int e base;
    Enc.int e seq;
    Enc.str e fingerprint;
    Enc.list e (pair_to_bin Enc.str Enc.int) cursors;
    Enc.list e (pair_to_bin Enc.int Enc.str) entries
  | Ok_frames frames ->
    Enc.u8 e 18;
    Enc.list e sync_frame_to_bin frames
  | Ok_sync { sy_applied; sy_skipped; sy_conflicts; sy_cursor } ->
    Enc.u8 e 19;
    Enc.int e sy_applied;
    Enc.int e sy_skipped;
    Enc.int e sy_conflicts;
    Enc.int e sy_cursor
  | Ok_conflicts rows ->
    Enc.u8 e 20;
    Enc.list e
      (fun e c ->
        Enc.int e c.cf_id;
        Enc.int e c.cf_base;
        Enc.int e c.cf_ours;
        Enc.int e c.cf_theirs;
        Enc.str e c.cf_origin;
        Enc.int e c.cf_at;
        Enc.opt e Enc.int c.cf_winner)
      rows
  | Ok_batch resps ->
    Enc.u8 e 21;
    Enc.list e response_to_bin resps
  | Error err ->
    Enc.u8 e 22;
    error_to_bin e err

let rec response_of_bin ?(depth = 0) d =
  match Dec.u8 d with
  | 1 -> Ok_unit
  | 2 -> Ok_int (Dec.int d)
  | 3 -> Ok_ints (Dec.list d Dec.int)
  | 4 -> Ok_atoms (Dec.list d Dec.str)
  | 5 -> Ok_text (Dec.payload d)
  | 6 -> Ok_nodes (Dec.list d (pair_of_bin Dec.int Dec.str))
  | 7 ->
    Ok_rows
      (Dec.list d (fun d ->
           let row_iid = Dec.int d in
           let row_entity = Dec.str d in
           let row_meta = meta_of_bin d in
           { row_iid; row_entity; row_meta }))
  | 8 ->
    let st_role = Dec.str d in
    let st_seq = Dec.int d in
    let st_clock = Dec.int d in
    let st_instances = Dec.int d in
    let st_records = Dec.int d in
    let st_store_tick = Dec.int d in
    let st_history_tick = Dec.int d in
    let st_uptime_s = Dec.float d in
    Ok_stat
      { st_role; st_seq; st_clock; st_instances; st_records; st_store_tick;
        st_history_tick; st_uptime_s }
  | 9 ->
    let fresh = Dec.int d in
    let reran = Dec.int d in
    let reused = Dec.int d in
    Ok_refresh { fresh; reran; reused }
  | 11 ->
    let seq = Dec.int d in
    let bytes = Dec.int d in
    Ok_snapshot_begin { seq; bytes }
  | 12 -> Ok_snapshot_chunk { data = Dec.payload d }
  | 13 -> Ok_snapshot_end { digest = Dec.str d }
  | 14 ->
    let seq = Dec.int d in
    let digest = Dec.str d in
    let payload = Dec.payload d in
    Ok_frame { seq; payload; digest }
  | 15 ->
    let primary_seq = Dec.int d in
    let rows =
      Dec.list d (fun d ->
          let lag_follower = Dec.str d in
          let lag_acked = Dec.int d in
          let lag_sent = Dec.int d in
          { lag_follower; lag_acked; lag_sent })
    in
    Ok_lags { primary_seq; rows }
  | 16 -> Ok_metrics (Dec.list d metric_of_bin)
  | 17 ->
    let wsid = Dec.str d in
    let base = Dec.int d in
    let seq = Dec.int d in
    let fingerprint = Dec.str d in
    let cursors = Dec.list d (pair_of_bin Dec.str Dec.int) in
    let entries = Dec.list d (pair_of_bin Dec.int Dec.str) in
    Ok_digest { wsid; base; seq; fingerprint; cursors; entries }
  | 18 -> Ok_frames (Dec.list d sync_frame_of_bin)
  | 19 ->
    let sy_applied = Dec.int d in
    let sy_skipped = Dec.int d in
    let sy_conflicts = Dec.int d in
    let sy_cursor = Dec.int d in
    Ok_sync { sy_applied; sy_skipped; sy_conflicts; sy_cursor }
  | 20 ->
    Ok_conflicts
      (Dec.list d (fun d ->
           let cf_id = Dec.int d in
           let cf_base = Dec.int d in
           let cf_ours = Dec.int d in
           let cf_theirs = Dec.int d in
           let cf_origin = Dec.str d in
           let cf_at = Dec.int d in
           let cf_winner = Dec.opt d Dec.int in
           { cf_id; cf_base; cf_ours; cf_theirs; cf_origin; cf_at; cf_winner }))
  | 21 ->
    let depth = enter_batch depth in
    Ok_batch (Dec.list d (response_of_bin ~depth))
  | 22 -> Error (error_of_bin d)
  | t -> wire_errorf "unknown binary response tag %d" t

(* String forms of the binary codec, for the property tests and the
   codec bench (the socket paths below keep the iovec form). *)
let encode_to_string enc v =
  let e = Enc.create () in
  enc e v;
  Iovec.concat (Enc.finish e)

let decode_of_string dec s =
  let d = Dec.of_string s in
  let v = dec d in
  if not (Dec.finished d) then
    wire_errorf "trailing bytes in binary frame (%d of %d consumed)" d.Dec.pos
      (String.length s);
  v

let request_to_binary_string = encode_to_string request_to_bin
let request_of_binary_string = decode_of_string (fun d -> request_of_bin d)
let response_to_binary_string = encode_to_string response_to_bin
let response_of_binary_string = decode_of_string (fun d -> response_of_bin d)

(* ------------------------------------------------------------------ *)
(* Framed socket I/O                                                   *)
(* ------------------------------------------------------------------ *)

let max_frame = 64 * 1024 * 1024

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | 0 -> wire_errorf "peer closed the connection mid-write"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        wire_errorf "peer closed the connection"
  in
  go 0

(* One fault-checked flush of an iovec frame list: a "wire.send" fault
   (fail / torn) covers every sender.  [Torn k] writes the first [k]
   bytes of the flattened batch and dies. *)
let flush_slices fd slices =
  match Fault.check "wire.send" with
  | Some (Fault.Torn k) ->
    (* the sender dies mid-frame: the peer sees a truncated message *)
    let msg = Iovec.concat slices in
    (try write_all fd (Bytes.of_string (String.sub msg 0 (min k (String.length msg))))
     with Wire_error _ -> ());
    raise (Fault.Injected "wire.send")
  | Some Fault.Fail -> raise (Fault.Injected "wire.send")
  | Some (Fault.Delay _) | None -> (
    try ignore (Iovec.gather_write fd (Array.of_list slices) (Iovec.total slices))
    with Unix.Unix_error (Unix.EPIPE, _, _) ->
      wire_errorf "peer closed the connection")

(* A frame: 0xd8 magic, flags byte (bit0 deadline, bit1 trace), u32-LE
   body length, then the optional header fields in flag order (u32-LE
   deadline ms; u8-length-prefixed trace token), then the body. *)
let binary_magic = '\xd8'

let frame ?deadline_ms ?trace body_slices =
  let blen = Iovec.total body_slices in
  if blen > max_frame then wire_errorf "oversized frame (%d bytes)" blen;
  let h = Buffer.create 48 in
  Buffer.add_char h binary_magic;
  let flags =
    (if deadline_ms = None then 0 else 1) lor if trace = None then 0 else 2
  in
  Buffer.add_char h (Char.chr flags);
  Buffer.add_int32_le h (Int32.of_int blen);
  (match deadline_ms with
  | None -> ()
  | Some ms -> Buffer.add_int32_le h (Int32.of_int (max 0 ms)));
  (match trace with
  | None -> ()
  | Some ctx ->
    let tok = Ddf_obs.Obs.span_ctx_to_token ctx in
    Buffer.add_char h (Char.chr (String.length tok));
    Buffer.add_string h tok);
  Iovec.of_string (Buffer.contents h) :: body_slices

(* Encode one message into its frame's slices, timed and metered. *)
let encode_frame ?deadline_ms ?trace enc v =
  let t0 = Unix.gettimeofday () in
  let e = Enc.create () in
  enc e v;
  let slices = frame ?deadline_ms ?trace (Enc.finish e) in
  M.observe h_encode (Unix.gettimeofday () -. t0);
  M.incr ~by:(Iovec.total slices) m_bytes_out;
  slices

let send_request ?deadline_ms ?trace fd req =
  flush_slices fd (encode_frame ?deadline_ms ?trace request_to_bin req)

let send_response ?deadline_ms ?trace fd resp =
  flush_slices fd (encode_frame ?deadline_ms ?trace response_to_bin resp)

(* A whole group of responses as one flush: the frame lists are
   chained and hit the kernel in a single gathered write — this is the
   replication outbox's group-commit fan-out path. *)
let send_response_batch fd items =
  match items with
  | [] -> ()
  | items ->
    flush_slices fd
      (List.concat_map
         (fun (resp, trace) -> encode_frame ?trace response_to_bin resp)
         items)

(* Read exactly [n] bytes; [None] when the stream ends cleanly at a
   message boundary (off = 0). *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Some buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then None else wire_errorf "truncated frame"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        if off = 0 then None else wire_errorf "connection reset mid-frame"
  in
  go 0

type frame_meta = {
  fm_deadline_ms : int option;
  fm_trace : Ddf_obs.Obs.span_ctx option;
}

(* The fixed header after the magic byte, then the flagged fields and
   the body.  Returns the undecoded body, its meta and the frame's
   total size. *)
let recv_frame_rest fd =
  let need n =
    match read_exact fd n with
    | None -> wire_errorf "truncated frame header"
    | Some b -> b
  in
  let hdr = need 5 in
  let flags = Char.code (Bytes.get hdr 0) in
  if flags land lnot 3 <> 0 then wire_errorf "bad frame flags 0x%x" flags;
  let blen = Int32.to_int (Bytes.get_int32_le hdr 1) land 0xFFFFFFFF in
  if blen > max_frame then wire_errorf "oversized frame (%d bytes)" blen;
  let hbytes = ref 6 in
  let fm_deadline_ms =
    if flags land 1 = 0 then None
    else begin
      hbytes := !hbytes + 4;
      Some (Int32.to_int (Bytes.get_int32_le (need 4) 0) land 0xFFFFFFFF)
    end
  in
  let fm_trace =
    if flags land 2 = 0 then None
    else begin
      let n = Char.code (Bytes.get (need 1) 0) in
      let tok = Bytes.to_string (need n) in
      hbytes := !hbytes + 1 + n;
      match Ddf_obs.Obs.span_ctx_of_token tok with
      | Some ctx -> Some ctx
      | None -> wire_errorf "bad trace token %S" tok
    end
  in
  let body =
    match read_exact fd blen with
    | None -> wire_errorf "truncated frame"
    | Some b -> Bytes.unsafe_to_string b
  in
  (body, { fm_deadline_ms; fm_trace }, !hbytes + blen)

(* [None] on clean EOF at a frame boundary.  Anything but the magic
   byte is refused; a pre-v9 peer's "ddf1" s-expression frame lands
   here too, and the error says which protocol this side speaks. *)
let recv_frame fd =
  let first = Bytes.create 1 in
  match Unix.read fd first 0 1 with
  | 0 -> None
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
  | _ ->
    let c = Bytes.get first 0 in
    if c <> binary_magic then
      wire_errorf
        "not a protocol v%d frame (first byte 0x%02x; v%d peers send binary \
         frames only, the s-expression framing of v8 and older is retired)"
        protocol_version (Char.code c) protocol_version;
    Some (recv_frame_rest fd)

(* Decode one frame's body, timed and metered. *)
let recv_decoded fd dec =
  match recv_frame fd with
  | None -> None
  | Some (body, meta, nbytes) ->
    let t0 = Unix.gettimeofday () in
    let v = decode_of_string dec body in
    M.observe h_decode (Unix.gettimeofday () -. t0);
    M.incr ~by:nbytes m_bytes_in;
    Some (v, meta)

let recv_request fd = recv_decoded fd (fun d -> request_of_bin d)
let recv_response fd = recv_decoded fd (fun d -> response_of_bin d)
