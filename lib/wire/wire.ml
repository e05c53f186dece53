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

   Each message is described once below, as one case of the request or
   response union (tag byte, verb, field layout; see Layout).  The
   binary codec, [request_name] and the text language of `hercules
   remote batch` (requests read with [request_of_sexp], answers
   printed with [response_to_sexp]; not a transport) all read those
   descriptions. *)

open Ddf_store
module S = Ddf_persist.Sexp
module E = Ddf_core.Error
module Fault = Ddf_fault.Fault

exception Wire_error = Layout.Wire_error

open Layout

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
          continues (the journal has no rollback).  The decoder
          refuses nesting deeper than a batch in a batch. *)

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


(* Mutations of the shared store/history/clock go through the
   group commit, one at a time; everything else (including task-window editing,
   which touches only the per-connection session) is a read.  Compact
   counts as a mutation (it rewrites the journal's snapshot); Subscribe
   and Repl_ack never reach the evaluator — the server's connection
   loop handles replication mode itself.  A batch is a mutation iff
   any member is: the whole pipeline then runs as one write job, so
   its writes group-commit together. *)
let rec is_mutation = function
  | Install _ | Annotate _ | Run _ | Recall _ | Refresh _ | Compact -> true
  (* the digest and frame pulls are reads of the wal FILE, which only
     a group commit may touch (like [Subscribe]'s backlog read) — so
     they ride the write queue too, not just the sync mutations *)
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

module M = Ddf_obs.Metrics

(* Wire traffic accounting: encode/decode latency per frame and bytes
   moved each way.  Surfaced through the Metrics verb, `remote
   metrics` and `hercules top` like every other registry metric. *)
let m_bytes_out = M.counter "wire.bytes_out"
let m_bytes_in = M.counter "wire.bytes_in"
let h_encode = M.histogram "wire.encode_seconds"
let h_decode = M.histogram "wire.decode_seconds"

(* ------------------------------------------------------------------ *)
(* The messages, described once (see Layout)                           *)
(* ------------------------------------------------------------------ *)

(* Tag bytes are append-only protocol surface: never renumber. *)

(* A filter's fields are present-or-absent forms of one (filter ...). *)
let filter =
  Form
    ( "filter",
      Fields
        (Map
           ( (fun (f_entities, (f_user, (f_from, (f_to, (f_keywords, f_text)))))
              ->
               { Store.f_entities; f_user; f_from; f_to; f_keywords; f_text }),
             (fun f ->
               Store.(f.f_entities, (f.f_user, (f.f_from, (f.f_to,
                 (f.f_keywords, f.f_text)))))),
             Named ("entities", Spread Str) ** Named ("user", Str)
             ** Named ("from", Int) ** Named ("to", Int)
             ** Named_list ("keywords", Str) ** Named ("text", Str) )) )

let sync_frame =
  Row
    (Map
       ( (fun (seq, (digest, payload)) -> (seq, digest, payload)),
         (fun (seq, digest, payload) -> (seq, (digest, payload))),
         Int ** Str ** Payload ))

let catalogs = union "catalog"
let entities = case catalogs 0 "entities" Unit (fun () -> Entities)
let tools = case catalogs 1 "tools" Unit (fun () -> Tools)
let flows = case catalogs 2 "flows" Unit (fun () -> Flows)

let catalog =
  described catalogs (function
    | Entities -> V (entities, ())
    | Tools -> V (tools, ())
    | Flows -> V (flows, ()))

module Request = struct
  let u = union "request"

  let hello =
    case u 1 "hello" (Str ** Form ("version", Int)) (fun (user, version) ->
        Hello { user; version })

  let ping = case u 2 "ping" Unit (fun () -> Ping)
  let stat = case u 3 "stat" Unit (fun () -> Stat)
  let catalog = case u 4 "catalog" catalog (fun c -> Catalog c)
  let browse = case u 5 "browse" filter (fun f -> Browse f)

  let install =
    case u 6 "install" (Str ** Str ** List Str ** Sexp)
      (fun (entity, (label, (keywords, value))) ->
        Install { entity; label; keywords; value })

  let annotate =
    case u 7 "annotate"
      (Int
      ** Fields
           (Named ("label", Str) ** Named ("comment", Str)
           ** Named ("keywords", Spread Str)))
      (fun (iid, (label, (comment, keywords))) ->
        Annotate { iid; label; comment; keywords })

  let start_goal = case u 8 "start-goal" Str (fun e -> Start_goal e)
  let start_data = case u 9 "start-data" Int (fun i -> Start_data i)
  let expand = case u 10 "expand" Int (fun n -> Expand n)

  let specialize =
    case u 11 "specialize" (Int ** Str) (fun (n, s) -> Specialize (n, s))

  let select =
    case u 12 "select" (Int ** List Int) (fun (n, l) -> Select (n, l))

  let node_browse =
    case u 13 "node-browse" (Int ** filter) (fun (n, f) -> Node_browse (n, f))

  let leaves = case u 14 "leaves" Unit (fun () -> Leaves)
  let run = case u 15 "run" Int (fun n -> Run n)
  let render = case u 16 "render" Unit (fun () -> Render)
  let recall = case u 17 "recall" Int (fun i -> Recall i)
  let trace = case u 18 "trace" Int (fun i -> Trace i)
  let uses = case u 19 "uses" Int (fun i -> Uses i)
  let refresh = case u 20 "refresh" Int (fun i -> Refresh i)
  let save_flow = case u 21 "save-flow" Str (fun n -> Save_flow n)
  let load_flow = case u 22 "load-flow" Str (fun n -> Load_flow n)
  let shutdown = case u 23 "shutdown" Unit (fun () -> Shutdown)
  let subscribe = case u 24 "subscribe" Int (fun s -> Subscribe s)
  let repl_ack = case u 25 "repl-ack" Int (fun s -> Repl_ack s)
  let lag = case u 26 "lag" Unit (fun () -> Lag)
  let compact = case u 27 "compact" Unit (fun () -> Compact)
  let metrics = case u 28 "metrics" Unit (fun () -> Metrics)
  let sync_digest = case u 29 "sync-digest" Unit (fun () -> Sync_digest)

  let sync_frames =
    case u 30 "sync-frames" (Int ** Int) (fun (after, limit) ->
        Sync_frames { after; limit })

  let sync_ack =
    case u 31 "sync-ack" (Str ** Int ** Spread sync_frame)
      (fun (origin, (upto, frames)) -> Sync_ack { origin; upto; frames })

  let conflicts = case u 32 "conflicts" Unit (fun () -> Conflicts)

  let resolve =
    case u 33 "resolve" (Int ** Int) (fun (conflict, winner) ->
        Resolve { conflict; winner })

  let snapshot_export =
    case u 34 "snapshot-export" Unit (fun () -> Snapshot_export)

  let batch = case u 35 "batch" (Nest u) (fun rs -> Batch rs)

  let fld =
    described u (function
      | Hello { user; version } -> V (hello, (user, version))
      | Ping -> V (ping, ())
      | Stat -> V (stat, ())
      | Catalog c -> V (catalog, c)
      | Browse f -> V (browse, f)
      | Install { entity; label; keywords; value } ->
        V (install, (entity, (label, (keywords, value))))
      | Annotate { iid; label; comment; keywords } ->
        V (annotate, (iid, (label, (comment, keywords))))
      | Start_goal e -> V (start_goal, e)
      | Start_data i -> V (start_data, i)
      | Expand n -> V (expand, n)
      | Specialize (n, s) -> V (specialize, (n, s))
      | Select (n, l) -> V (select, (n, l))
      | Node_browse (n, f) -> V (node_browse, (n, f))
      | Leaves -> V (leaves, ())
      | Run n -> V (run, n)
      | Render -> V (render, ())
      | Recall i -> V (recall, i)
      | Trace i -> V (trace, i)
      | Uses i -> V (uses, i)
      | Refresh i -> V (refresh, i)
      | Save_flow n -> V (save_flow, n)
      | Load_flow n -> V (load_flow, n)
      | Shutdown -> V (shutdown, ())
      | Subscribe s -> V (subscribe, s)
      | Repl_ack s -> V (repl_ack, s)
      | Lag -> V (lag, ())
      | Compact -> V (compact, ())
      | Metrics -> V (metrics, ())
      | Sync_digest -> V (sync_digest, ())
      | Sync_frames { after; limit } -> V (sync_frames, (after, limit))
      | Sync_ack { origin; upto; frames } ->
        V (sync_ack, (origin, (upto, frames)))
      | Conflicts -> V (conflicts, ())
      | Resolve { conflict; winner } -> V (resolve, (conflict, winner))
      | Snapshot_export -> V (snapshot_export, ())
      | Batch rs -> V (batch, rs))
end

(* an instance's meta-data: the wire's, the journal's and the checkpoint's *)
let meta =
  Row
    (Map
       ( (fun (user, (created_at, (label, (comment, keywords)))) ->
           { Store.user; created_at; label; comment; keywords }),
         (fun m ->
           Store.(m.user, (m.created_at, (m.label, (m.comment, m.keywords))))),
         Str ** Int ** Str ** Str ** List Str ))

let error =
  Map
    ( (fun (code, (message, (retryable, (retry_after, context)))) ->
        { E.code; message; retryable; retry_after; context }),
      (fun e ->
        E.(e.code, (e.message, (e.retryable, (e.retry_after, e.context))))),
      (* a code minted by a newer peer reads as `Internal *)
      Map
        ( (fun s -> Option.value (E.code_of_string s) ~default:`Internal),
          E.code_to_string,
          Str )
      ** Str
      ** Flag ("retryable", "final")
      ** Fields
           (Named ("retry-after", Float)
           ** Named_list ("ctx", Row (Str ** Str))) )

(* (c name count), (g name value) and (h name n sum min max p50 p90
   p99); floats travel bit-exact and print as exact hex. *)
let metrics = union "metric"
let counter = case metrics 0 "c" (Str ** Int) (fun (n, v) -> M.Counter (n, v))
let gauge = case metrics 1 "g" (Str ** Float) (fun (n, v) -> M.Gauge (n, v))

let histogram =
  case metrics 2 "h"
    (Str ** Int ** Float ** Float ** Float ** Float ** Float ** Float)
    (fun (n, (hs_n, (hs_sum, (hs_min, (hs_max, (hs_p50, (hs_p90, hs_p99)))))))
    ->
      M.Histogram
        (n, { M.hs_n; hs_sum; hs_min; hs_max; hs_p50; hs_p90; hs_p99 }))

let metric =
  described metrics (function
    | M.Counter (n, v) -> V (counter, (n, v))
    | M.Gauge (n, v) -> V (gauge, (n, v))
    | M.Histogram (n, h) ->
      V (histogram, M.(n, (h.hs_n, (h.hs_sum, (h.hs_min, (h.hs_max,
        (h.hs_p50, (h.hs_p90, h.hs_p99)))))))))

module Response = struct
  let u = union "response"
  let ok_unit = case u 1 "ok" Unit (fun () -> Ok_unit)
  let ok_int = case u 2 "ok-int" Int (fun n -> Ok_int n)
  let ok_ints = case u 3 "ok-ints" (Spread Int) (fun l -> Ok_ints l)
  let ok_atoms = case u 4 "ok-atoms" (Spread Str) (fun l -> Ok_atoms l)
  let ok_text = case u 5 "ok-text" Payload (fun t -> Ok_text t)

  let ok_nodes =
    case u 6 "ok-nodes" (Spread (Row (Int ** Str))) (fun l -> Ok_nodes l)

  let ok_rows =
    case u 7 "ok-rows"
      (Spread
         (Map
            ( (fun (row_iid, (row_entity, row_meta)) ->
                { row_iid; row_entity; row_meta }),
              (fun r -> (r.row_iid, (r.row_entity, r.row_meta))),
              Row (Int ** Str ** meta) )))
      (fun rows -> Ok_rows rows)

  let ok_stat =
    case u 8 "ok-stat" (Str ** Int ** Int ** Int ** Int ** Int ** Int ** Float)
      (fun (st_role, (st_seq, (st_clock, (st_instances, (st_records,
             (st_store_tick, (st_history_tick, st_uptime_s))))))) ->
        Ok_stat
          { st_role; st_seq; st_clock; st_instances; st_records;
            st_store_tick; st_history_tick; st_uptime_s })

  let ok_refresh =
    case u 9 "ok-refresh" (Int ** Int ** Int) (fun (fresh, (reran, reused)) ->
        Ok_refresh { fresh; reran; reused })

  (* tag 10 was the monolithic v<=6 snapshot: retired, never reuse it *)
  let ok_snapshot_begin =
    case u 11 "ok-snapshot-begin" (Int ** Int) (fun (seq, bytes) ->
        Ok_snapshot_begin { seq; bytes })

  let ok_snapshot_chunk =
    case u 12 "ok-snapshot-chunk" Payload (fun data ->
        Ok_snapshot_chunk { data })

  let ok_snapshot_end =
    case u 13 "ok-snapshot-end" Str (fun digest -> Ok_snapshot_end { digest })

  let ok_frame =
    case u 14 "ok-frame" (Int ** Str ** Payload)
      (fun (seq, (digest, payload)) -> Ok_frame { seq; payload; digest })

  let ok_lags =
    case u 15 "ok-lags"
      (Int
      ** Spread
           (Map
              ( (fun (lag_follower, (lag_acked, lag_sent)) ->
                  { lag_follower; lag_acked; lag_sent }),
                (fun r -> (r.lag_follower, (r.lag_acked, r.lag_sent))),
                Row (Str ** Int ** Int) )))
      (fun (primary_seq, rows) -> Ok_lags { primary_seq; rows })

  let ok_metrics =
    case u 16 "ok-metrics" (Spread metric) (fun l -> Ok_metrics l)

  let ok_digest =
    case u 17 "ok-digest"
      (Str ** Int ** Int ** Str
      ** List (Row (Str ** Int))
      ** List (Row (Int ** Str)))
      (fun (wsid, (base, (seq, (fingerprint, (cursors, entries))))) ->
        Ok_digest { wsid; base; seq; fingerprint; cursors; entries })

  let ok_frames =
    case u 18 "ok-frames" (Spread sync_frame) (fun l -> Ok_frames l)

  let ok_sync =
    case u 19 "ok-sync" (Int ** Int ** Int ** Int)
      (fun (sy_applied, (sy_skipped, (sy_conflicts, sy_cursor))) ->
        Ok_sync { sy_applied; sy_skipped; sy_conflicts; sy_cursor })

  let ok_conflicts =
    case u 20 "ok-conflicts"
      (Spread
         (Map
            ( (fun (cf_id, (cf_base, (cf_ours, (cf_theirs, (cf_origin,
                    (cf_at, cf_winner)))))) ->
                { cf_id; cf_base; cf_ours; cf_theirs; cf_origin; cf_at;
                  cf_winner }),
              (fun c ->
                (c.cf_id, (c.cf_base, (c.cf_ours, (c.cf_theirs,
                  (c.cf_origin, (c.cf_at, c.cf_winner))))))),
              Row (Int ** Int ** Int ** Int ** Str ** Int ** Opt Int) )))
      (fun rows -> Ok_conflicts rows)

  let ok_batch = case u 21 "ok-batch" (Nest u) (fun rs -> Ok_batch rs)
  let error = case u 22 "error" error (fun e -> Error e)

  let fld =
    described u (function
      | Ok_unit -> V (ok_unit, ())
      | Ok_int n -> V (ok_int, n)
      | Ok_ints l -> V (ok_ints, l)
      | Ok_atoms l -> V (ok_atoms, l)
      | Ok_text t -> V (ok_text, t)
      | Ok_nodes l -> V (ok_nodes, l)
      | Ok_rows l -> V (ok_rows, l)
      | Ok_stat s ->
        V (ok_stat, (s.st_role, (s.st_seq, (s.st_clock, (s.st_instances,
          (s.st_records, (s.st_store_tick, (s.st_history_tick,
          s.st_uptime_s))))))))
      | Ok_refresh { fresh; reran; reused } ->
        V (ok_refresh, (fresh, (reran, reused)))
      | Ok_snapshot_begin { seq; bytes } -> V (ok_snapshot_begin, (seq, bytes))
      | Ok_snapshot_chunk { data } -> V (ok_snapshot_chunk, data)
      | Ok_snapshot_end { digest } -> V (ok_snapshot_end, digest)
      | Ok_frame { seq; payload; digest } ->
        V (ok_frame, (seq, (digest, payload)))
      | Ok_lags { primary_seq; rows } -> V (ok_lags, (primary_seq, rows))
      | Ok_metrics l -> V (ok_metrics, l)
      | Ok_digest { wsid; base; seq; fingerprint; cursors; entries } ->
        V (ok_digest, (wsid, (base, (seq, (fingerprint, (cursors, entries))))))
      | Ok_frames l -> V (ok_frames, l)
      | Ok_sync s ->
        V (ok_sync, (s.sy_applied, (s.sy_skipped, (s.sy_conflicts,
          s.sy_cursor))))
      | Ok_conflicts l -> V (ok_conflicts, l)
      | Ok_batch rs -> V (ok_batch, rs)
      | Error e -> V (error, e))
end

let request_of_sexp = of_sexp Request.u
let response_to_sexp = to_sexp Response.u
let hello user = Hello { user; version = protocol_version }
let request_name = verb Request.u

(* String forms of the binary codec, for the property tests and the
   codec bench (the socket paths below keep the iovec form). *)
let request_to_binary_string = to_string Request.fld
let request_of_binary_string = of_string Request.fld
let response_to_binary_string = to_string Response.fld
let response_of_binary_string = of_string Response.fld

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
let encode_frame ?deadline_ms ?trace f v =
  let t0 = Unix.gettimeofday () in
  let slices = frame ?deadline_ms ?trace (to_slices f v) in
  M.observe h_encode (Unix.gettimeofday () -. t0);
  M.incr ~by:(Iovec.total slices) m_bytes_out;
  slices

let send_request ?deadline_ms ?trace fd req =
  flush_slices fd (encode_frame ?deadline_ms ?trace Request.fld req)

let send_response ?deadline_ms ?trace fd resp =
  flush_slices fd (encode_frame ?deadline_ms ?trace Response.fld resp)

(* A whole group of responses as one flush: the frame lists are
   chained and hit the kernel in a single gathered write — this is the
   replication outbox's group-commit fan-out path. *)
let send_response_batch fd items =
  match items with
  | [] -> ()
  | items ->
    flush_slices fd
      (List.concat_map
         (fun (resp, trace) -> encode_frame ?trace Response.fld resp)
         items)

(* ------------------------------------------------------------------ *)
(* Receiving: one read(2) per frame                                    *)
(* ------------------------------------------------------------------ *)

let m_recv_reads = M.counter "wire.recv_reads"

(* A request or answer of a design session is a few dozen bytes, and
   every header fits too (at most 266 bytes), so a frame that has
   fully arrived is taken with one read(2) into this buffer and decoded
   where it lies. *)
let recv_buffer_bytes = 4096

(* A body larger than the buffer is read into bytes of its own.  Its
   header alone allocates at most this much; a larger body grows as
   its bytes arrive, so a peer must send what it claims before the
   receiver holds it. *)
let body_prealloc_bytes = 1024 * 1024

type receiver = {
  rx_fd : Unix.file_descr;
  rx_buf : Bytes.t;
  mutable rx_pos : int;  (* the first byte not yet taken *)
  mutable rx_end : int;  (* the end of the bytes read *)
}

let receiver fd =
  { rx_fd = fd; rx_buf = Bytes.create recv_buffer_bytes; rx_pos = 0; rx_end = 0 }

(* One read(2) into [b] at [off]: the byte count, 0 at end of stream.
   A reset ends the stream too at a frame boundary; inside a frame it
   is an error. *)
let read_counted rx ~boundary b off len =
  M.incr m_recv_reads;
  match Unix.read rx.rx_fd b off len with
  | k -> k
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    if boundary then 0 else wire_errorf "connection reset mid-frame"

(* One read into the buffer's free tail, after moving the bytes not yet
   taken to its start so that the read can take as much as fits. *)
let read_more rx ~boundary =
  let have = rx.rx_end - rx.rx_pos in
  if rx.rx_pos > 0 then begin
    Bytes.blit rx.rx_buf rx.rx_pos rx.rx_buf 0 have;
    rx.rx_pos <- 0;
    rx.rx_end <- have
  end;
  let k =
    read_counted rx ~boundary rx.rx_buf rx.rx_end (recv_buffer_bytes - rx.rx_end)
  in
  rx.rx_end <- rx.rx_end + k;
  k

(* Have [n] bytes (at most the buffer's size) from [rx_pos] buffered;
   [truncated] names the part of the frame the stream ended in. *)
let rec fill rx n ~truncated =
  if rx.rx_end - rx.rx_pos < n then
    if read_more rx ~boundary:false = 0 then wire_errorf "%s" truncated
    else fill rx n ~truncated

(* A body too large for the buffer: what of it arrived with the header,
   then the rest read straight into its own bytes. *)
let recv_large_body rx blen =
  let body = ref (Bytes.create (min blen body_prealloc_bytes)) in
  let got = rx.rx_end - rx.rx_pos in
  Bytes.blit rx.rx_buf rx.rx_pos !body 0 got;
  rx.rx_pos <- 0;
  rx.rx_end <- 0;
  let rec go got =
    if got < blen then begin
      if got = Bytes.length !body then
        body := Bytes.extend !body 0 (min (blen - got) got);
      match read_counted rx ~boundary:false !body got (Bytes.length !body - got) with
      | 0 -> wire_errorf "truncated frame"
      | k -> go (got + k)
    end
  in
  go got;
  Bytes.unsafe_to_string !body

type frame_meta = {
  fm_deadline_ms : int option;
  fm_trace : Ddf_obs.Obs.span_ctx option;
  fm_decode_words : float;
}

(* Decode the frame at [rx_pos], whose header is in the buffer: the
   body in place when the whole frame fits, else from its own bytes. *)
let decode_frame rx f =
  let b = rx.rx_buf and p = rx.rx_pos in
  let flags = Char.code (Bytes.get b (p + 1)) in
  if flags land lnot 3 <> 0 then wire_errorf "bad frame flags 0x%x" flags;
  let blen = Int32.to_int (Bytes.get_int32_le b (p + 2)) land 0xFFFFFFFF in
  if blen > max_frame then wire_errorf "oversized frame (%d bytes)" blen;
  let header = "truncated frame header" in
  let hlen = if flags land 1 = 0 then 6 else 10 in
  fill rx hlen ~truncated:header;
  let hlen =
    if flags land 2 = 0 then hlen
    else begin
      fill rx (hlen + 1) ~truncated:header;
      hlen + 1 + Char.code (Bytes.get rx.rx_buf (rx.rx_pos + hlen))
    end
  in
  fill rx hlen ~truncated:header;
  (* [fill] may have moved the frame to the buffer's start *)
  let b = rx.rx_buf and p = rx.rx_pos in
  let fm_deadline_ms =
    if flags land 1 = 0 then None
    else Some (Int32.to_int (Bytes.get_int32_le b (p + 6)) land 0xFFFFFFFF)
  in
  let fm_trace =
    if flags land 2 = 0 then None
    else
      let at = if flags land 1 = 0 then 6 else 10 in
      let tok = Bytes.sub_string b (at + p + 1) (hlen - at - 1) in
      match Ddf_obs.Obs.span_ctx_of_token tok with
      | Some ctx -> Some ctx
      | None -> wire_errorf "bad trace token %S" tok
  in
  let decode s pos =
    let t0 = Unix.gettimeofday () in
    let v = M.with_alloc_words (fun () -> of_substring f s pos blen) in
    M.observe h_decode (Unix.gettimeofday () -. t0);
    v
  in
  let v, fm_decode_words =
    if hlen + blen <= recv_buffer_bytes then begin
      fill rx (hlen + blen) ~truncated:"truncated frame";
      let p = rx.rx_pos in
      rx.rx_pos <- p + hlen + blen;
      (* every string the decoder returns is a copy: nothing aliases
         the buffer once it returns *)
      decode (Bytes.unsafe_to_string rx.rx_buf) (p + hlen)
    end
    else begin
      rx.rx_pos <- rx.rx_pos + hlen;
      decode (recv_large_body rx blen) 0
    end
  in
  M.incr ~by:(hlen + blen) m_bytes_in;
  (v, { fm_deadline_ms; fm_trace; fm_decode_words })

(* [None] on clean EOF at a frame boundary.  Anything but the magic
   byte is refused; a pre-v9 peer's "ddf1" s-expression frame lands
   here too, and the error says which protocol this side speaks. *)
let recv_decoded rx f =
  if rx.rx_pos = rx.rx_end && read_more rx ~boundary:true = 0 then None
  else begin
    let c = Bytes.get rx.rx_buf rx.rx_pos in
    if c <> binary_magic then
      wire_errorf
        "not a protocol v%d frame (first byte 0x%02x; v%d peers send binary \
         frames only, the s-expression framing of v8 and older is retired)"
        protocol_version (Char.code c) protocol_version;
    fill rx 6 ~truncated:"truncated frame header";
    Some (decode_frame rx f)
  end

let recv_request rx = recv_decoded rx Request.fld
let recv_response rx = recv_decoded rx Response.fld

let discard rx =
  rx.rx_pos <- 0;
  rx.rx_end <- 0;
  read_more rx ~boundary:true > 0

(* The receiving end of a streamed snapshot, after its
   [Ok_snapshot_begin]: chunks go to [path] until [Ok_snapshot_end],
   whose digest covers the whole file, so only one chunk is ever held
   in memory.  The file is removed unless the stream checks out,
   including when [recv] raises. *)
let receive_snapshot ~recv ~bytes path =
  let oc = open_out_bin path in
  let rec chunks received =
    match recv () with
    | Ok_snapshot_chunk { data } ->
      output_string oc data;
      chunks (received + String.length data)
    | Ok_snapshot_end { digest } ->
      close_out oc;
      if received <> bytes then Result.Error (`Short received)
      else if not (String.equal (Digest.to_hex (Digest.file path)) digest) then
        Result.Error `Bad_digest
      else Ok ()
    | resp -> Result.Error (`Stopped resp)
  in
  let discard () =
    close_out_noerr oc;
    try Sys.remove path with Sys_error _ -> ()
  in
  match chunks 0 with
  | Ok () -> Ok ()
  | Result.Error _ as e ->
    discard ();
    e
  | exception e ->
    discard ();
    raise e
