(* Typed client: one socket, blocking request/response.  All the
   interesting protocol work (framing, the codec) lives in Ddf_wire; this
   module is the thin typed veneer the CLI and tests use.

   Resilience is driven by the error taxonomy rather than blind
   redialing.  Every failure is classified before any retry decision:

   - send-phase transport failure: the server never saw a complete
     frame, so nothing executed — safe to resend anything;
   - recv-phase failure on a read: the answer is lost but re-asking is
     harmless — resend;
   - recv-phase failure on a MUTATION: the request was fully delivered
     and may have committed — surfaced as [`Ambiguous_commit], never
     resent (an at-least-once blind retry could double-apply);
   - a server error with [retryable = true] ([`Overloaded], a queue
     [`Timeout]): the server asserts the request was not executed —
     resend anything, honouring its retry-after hint;
   - any other server error is the answer, never a reason to retry.

   [retries] bounds the resend attempts (default 0: fail fast, the
   historical behaviour); backoff is exponential from 50ms to 1s with
   the server's retry-after hint as a floor.  [deadline] gives each
   call a total budget: the remaining budget rides in every frame
   header so the server can shed work the client will no longer read,
   and retries stop when the budget is spent.  [timeout] arms
   [SO_RCVTIMEO] per attempt; on expiry the connection is dropped (a
   late reply would desynchronize the stream) and redialed on the next
   call. *)

module Wire = Ddf_wire.Wire
module E = Ddf_core.Error
module Metrics = Ddf_obs.Metrics
module Obs = Ddf_obs.Obs

let client_errorf ?(code = `Internal) fmt = E.errorf code fmt

let m_retries = Metrics.counter "client.retries"
let m_ambiguous = Metrics.counter "client.ambiguous_commits"

type t = {
  socket : string;
  c_user : string;
  c_timeout : float option;
  c_retries : int;
  c_deadline : float option;          (* per-call budget, seconds *)
  (* the socket and its receiver, the one reader of that socket *)
  mutable conn : (Unix.file_descr * Wire.receiver) option;
  mutable closed : bool;
}

let user t = t.c_user

let backoff_initial = 0.05
let backoff_max = 1.0

let drop t =
  match t.conn with
  | None -> ()
  | Some (fd, _) ->
    t.conn <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* One dial attempt: socket, connect, hello.  The server answers the
   hello with Ok_unit, or refuses (version mismatch, capacity) with a
   typed error we re-raise with its code intact. *)
let dial t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fail ?(code = `Unavailable) fmt =
    Printf.ksprintf
      (fun s ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        E.raise_ (E.make ~context:[ ("endpoint", t.socket) ] code s))
      fmt
  in
  (match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    fail "cannot connect to %s: %s" t.socket (Unix.error_message e));
  (match t.c_timeout with
  | Some s -> (
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | None -> ());
  let rx = Wire.receiver fd in
  (match
     Wire.send_request fd (Wire.hello t.c_user);
     Wire.recv_response rx
   with
  | Some (Wire.Ok_unit, _) -> ()
  | Some (Wire.Error err, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (E.Ddf_error err)
  | Some _ -> fail ~code:`Internal "unexpected response to hello"
  | None -> fail "server closed the connection during hello"
  | exception Wire.Wire_error m -> fail "%s" m
  | exception Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e));
  t.conn <- Some (fd, rx)

(* A refused hello (version mismatch) comes back [retryable = false]
   and is final; an unreachable socket or a capacity refusal is
   transient and worth another dial. *)
let rec dial_retrying t attempts backoff =
  match dial t with
  | () -> ()
  | exception (E.Ddf_error err as e) ->
    if err.E.retryable && attempts > 0 then begin
      Metrics.incr m_retries;
      Unix.sleepf
        (match err.E.retry_after with
        | Some after -> Float.max backoff after
        | None -> backoff);
      dial_retrying t (attempts - 1) (Float.min (backoff *. 2.0) backoff_max)
    end
    else raise e

let ensure_connected t =
  if t.closed then client_errorf ~code:`Invalid "connection is closed";
  match t.conn with
  | Some conn -> conn
  | None ->
    dial_retrying t t.c_retries backoff_initial;
    Option.get t.conn

(* Tracing: the whole call is one [client.request] span; each wire
   attempt is a [client.attempt] child whose context rides the frame
   header, so the server's dispatch span (and everything under it)
   joins this client's trace.  Retries appear as [client.retry]
   instants between attempt spans, not inside them — the waterfall
   then shows each attempt's true extent and the backoff gaps. *)
let call t req =
  let started = Unix.gettimeofday () in
  let mutation = Wire.is_mutation req in
  let budget_left () =
    Option.map (fun b -> b -. (Unix.gettimeofday () -. started)) t.c_deadline
  in
  let ambiguous what =
    drop t;
    Metrics.incr m_ambiguous;
    E.errorf
      ~context:[ ("request", Wire.request_name req) ]
      `Ambiguous_commit
      "%s after the mutation was sent: it may or may not have committed" what
  in
  let rec attempt retries backoff =
    (match budget_left () with
    | Some left when left <= 0.0 ->
      E.errorf `Timeout "deadline (%gs) spent before the request went out"
        (Option.value t.c_deadline ~default:0.0)
    | Some _ | None -> ());
    let fd, rx = ensure_connected t in
    (* what is left of the budget rides in the frame header, so the
       server can shed the request once we are no longer listening *)
    let deadline_ms =
      Option.map
        (fun left -> int_of_float (Float.max 1.0 (left *. 1000.0)))
        (budget_left ())
    in
    let retry ?(sleep = backoff) e =
      let budget_ok =
        match budget_left () with Some left -> left > sleep | None -> true
      in
      if retries > 0 && budget_ok then begin
        Metrics.incr m_retries;
        Obs.instant ~cat:"client"
          ~attrs:
            [ ("op", Obs.Str (Wire.request_name req));
              ("sleep_ms", Obs.Float (sleep *. 1000.0)) ]
          "client.retry";
        Unix.sleepf sleep;
        attempt (retries - 1) (Float.min (backoff *. 2.0) backoff_max)
      end
      else raise e
    in
    let sent = ref false in
    (* the attempt span covers exactly the wire exchange; its context
       goes out in the frame header so the server parents under it *)
    let outcome =
      Obs.with_span ~cat:"client"
        ~attrs:[ ("attempt", Obs.Int (t.c_retries - retries)) ]
        "client.attempt"
        (fun () ->
          match
            Wire.send_request ?deadline_ms ?trace:(Obs.current_span ()) fd req;
            sent := true;
            Wire.recv_response rx
          with
          | v -> Ok v
          | exception e -> Error e)
    in
    match outcome with
    | Ok (Some (resp, _)) -> (
      match resp with
      | Wire.Error err when err.E.retryable && retries > 0 ->
        (* the server asserts the request was NOT executed (shed,
           expired in the queue): resending cannot double-apply *)
        let sleep =
          match err.E.retry_after with
          | Some after -> Float.max backoff after
          | None -> backoff
        in
        retry ~sleep (E.Ddf_error err)
      | resp -> resp)
    | Ok None ->
      if !sent && mutation then ambiguous "the connection closed"
      else begin
        drop t;
        retry (E.Ddf_error (E.make `Unavailable "server closed the connection"))
      end
    | Error (Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)) ->
      (* the reply may still arrive; the stream is no longer
         trustworthy either way *)
      if !sent && mutation then ambiguous "the reply timed out"
      else begin
        drop t;
        retry
          (E.Ddf_error
             (E.make `Timeout
                (Printf.sprintf "request timed out after %gs"
                   (Option.value t.c_timeout ~default:0.0))))
      end
    | Error (Wire.Wire_error m) ->
      if !sent && mutation then ambiguous m
      else begin
        drop t;
        retry (E.Ddf_error (E.make `Unavailable m))
      end
    | Error (Ddf_fault.Fault.Injected point) ->
      (* an injected torn send: the frame never fully left, so the
         server cannot have parsed (or executed) it *)
      drop t;
      retry (E.Ddf_error (E.make `Unavailable ("injected fault at " ^ point)))
    | Error (Unix.Unix_error (e, _, _)) ->
      if !sent && mutation then ambiguous (Unix.error_message e)
      else begin
        drop t;
        retry (E.Ddf_error (E.make `Unavailable (Unix.error_message e)))
      end
    | Error e -> raise e
  in
  Obs.with_span ~cat:"client"
    ~attrs:[ ("op", Obs.Str (Wire.request_name req)) ]
    "client.request"
    (fun () -> attempt t.c_retries backoff_initial)

(* Raise on Error, return the payload otherwise; each wrapper below
   then destructures the one constructor it expects. *)
let ok t req =
  match call t req with
  | Wire.Error err -> raise (E.Ddf_error err)
  | resp -> resp

let unexpected req resp =
  client_errorf "unexpected %s response to %s"
    (match (resp : Wire.response) with
    | Wire.Ok_unit -> "unit" | Wire.Ok_int _ -> "int"
    | Wire.Ok_ints _ -> "ints" | Wire.Ok_atoms _ -> "atoms"
    | Wire.Ok_text _ -> "text" | Wire.Ok_nodes _ -> "nodes"
    | Wire.Ok_rows _ -> "rows" | Wire.Ok_stat _ -> "stat"
    | Wire.Ok_refresh _ -> "refresh"
    | Wire.Ok_snapshot_begin _ -> "snapshot-begin"
    | Wire.Ok_snapshot_chunk _ -> "snapshot-chunk"
    | Wire.Ok_snapshot_end _ -> "snapshot-end"
    | Wire.Ok_frame _ -> "frame" | Wire.Ok_lags _ -> "lags"
    | Wire.Ok_batch _ -> "batch" | Wire.Ok_metrics _ -> "metrics"
    | Wire.Ok_digest _ -> "digest" | Wire.Ok_frames _ -> "frames"
    | Wire.Ok_sync _ -> "sync" | Wire.Ok_conflicts _ -> "conflicts"
    | Wire.Error _ -> "error")
    (Wire.request_name req)

let ok_unit t req =
  match ok t req with Wire.Ok_unit -> () | resp -> unexpected req resp

let ok_int t req =
  match ok t req with Wire.Ok_int n -> n | resp -> unexpected req resp

let ok_ints t req =
  match ok t req with Wire.Ok_ints ns -> ns | resp -> unexpected req resp

let ok_atoms t req =
  match ok t req with Wire.Ok_atoms xs -> xs | resp -> unexpected req resp

let ok_text t req =
  match ok t req with Wire.Ok_text s -> s | resp -> unexpected req resp

let ok_nodes t req =
  match ok t req with Wire.Ok_nodes ns -> ns | resp -> unexpected req resp

let ok_rows t req =
  match ok t req with Wire.Ok_rows rs -> rs | resp -> unexpected req resp

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)
(* ------------------------------------------------------------------ *)

let connect ?(user = "anonymous") ?timeout ?(retries = 0) ?deadline ~socket
    () =
  let t =
    { socket; c_user = user; c_timeout = timeout; c_retries = retries;
      c_deadline = deadline; conn = None; closed = false }
  in
  dial_retrying t retries backoff_initial;
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop t
  end

let closed t = t.closed

let with_client ?user ?timeout ?retries ?deadline ~socket f =
  let t = connect ?user ?timeout ?retries ?deadline ~socket () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* The session surface                                                 *)
(* ------------------------------------------------------------------ *)

let ping t = ok_unit t Wire.Ping

let stat t =
  match ok t Wire.Stat with
  | Wire.Ok_stat s -> s
  | resp -> unexpected Wire.Stat resp

let catalog t which = ok_atoms t (Wire.Catalog which)
let browse t filter = ok_rows t (Wire.Browse filter)

let install t ~entity ?(label = "") ?(keywords = []) value =
  ok_int t (Wire.Install { entity; label; keywords; value })

let annotate t ?label ?comment ?keywords iid =
  ok_unit t (Wire.Annotate { iid; label; comment; keywords })

let start_goal t entity = ok_int t (Wire.Start_goal entity)
let start_data t iid = ok_int t (Wire.Start_data iid)
let expand t nid = ok_nodes t (Wire.Expand nid)
let specialize t nid sub = ok_unit t (Wire.Specialize (nid, sub))
let select t nid iids = ok_unit t (Wire.Select (nid, iids))
let node_browse t nid filter = ok_ints t (Wire.Node_browse (nid, filter))
let leaves t = ok_nodes t Wire.Leaves
let run t nid = ok_ints t (Wire.Run nid)
let render t = ok_text t Wire.Render
let recall t iid = ok_int t (Wire.Recall iid)
let trace t iid = ok_text t (Wire.Trace iid)
let uses t iid = ok_ints t (Wire.Uses iid)

let refresh t iid =
  match ok t (Wire.Refresh iid) with
  | Wire.Ok_refresh { fresh; reran; reused } -> (fresh, reran, reused)
  | resp -> unexpected (Wire.Refresh iid) resp

let save_flow t name = ok_unit t (Wire.Save_flow name)
let load_flow t name = ok_ints t (Wire.Load_flow name)

let lag t =
  match ok t Wire.Lag with
  | Wire.Ok_lags { primary_seq; rows } -> (primary_seq, rows)
  | resp -> unexpected Wire.Lag resp

let compact t = ok_unit t Wire.Compact

let metrics t =
  match ok t Wire.Metrics with
  | Wire.Ok_metrics ms -> ms
  | resp -> unexpected Wire.Metrics resp

let batch t reqs =
  let req = Wire.Batch reqs in
  match ok t req with
  | Wire.Ok_batch resps ->
    let want = List.length reqs and got = List.length resps in
    if want <> got then
      client_errorf "batch answered %d of %d requests" got want;
    resps
  | resp -> unexpected req resp

let shutdown t =
  if not t.closed then begin
    ok_unit t Wire.Shutdown;
    close t
  end

(* ------------------------------------------------------------------ *)
(* The anti-entropy sync surface                                       *)
(* ------------------------------------------------------------------ *)

let sync_digest t =
  match ok t Wire.Sync_digest with
  | Wire.Ok_digest { wsid; base; seq; fingerprint; cursors; entries } ->
      (wsid, base, seq, fingerprint, cursors, entries)
  | resp -> unexpected Wire.Sync_digest resp

let sync_frames t ~after ~limit =
  let req = Wire.Sync_frames { after; limit } in
  match ok t req with
  | Wire.Ok_frames fs -> fs
  | resp -> unexpected req resp

let sync_push t ~origin ~upto frames =
  let req = Wire.Sync_ack { origin; upto; frames } in
  match ok t req with
  | Wire.Ok_sync st -> st
  | resp -> unexpected req resp

let conflicts t =
  match ok t Wire.Conflicts with
  | Wire.Ok_conflicts rows -> rows
  | resp -> unexpected Wire.Conflicts resp

let resolve t ~conflict ~winner =
  ok_unit t (Wire.Resolve { conflict; winner })

(* ------------------------------------------------------------------ *)
(* Streaming snapshot export                                           *)
(* ------------------------------------------------------------------ *)

(* One request, many response frames — this cannot ride [call]'s
   one-in-one-out machinery, so it speaks on the socket directly (and
   never retries: the server compacts first, a mutation).  The
   snapshot is spooled to [out ^ ".tmp"] chunk by chunk, verified
   against the stream digest and renamed into place, so it never
   exists as one in-memory string. *)
let snapshot_export t ~out =
  let fd, rx = ensure_connected t in
  let tmp = out ^ ".tmp" in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        drop t;
        client_errorf ~code:`Unavailable "%s" s)
      fmt
  in
  let recv () =
    match Wire.recv_response rx with
    | Some (resp, _) -> resp
    | None -> fail "server closed the connection mid-export"
    | exception Wire.Wire_error m -> fail "%s" m
    | exception Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e)
  in
  (match Wire.send_request fd Wire.Snapshot_export with
  | () -> ()
  | exception Wire.Wire_error m -> fail "%s" m
  | exception Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e));
  match recv () with
  | Wire.Error err -> raise (E.Ddf_error err)
  | Wire.Ok_snapshot_begin { seq; bytes } -> (
    match Wire.receive_snapshot ~recv ~bytes tmp with
    | Ok () ->
      Sys.rename tmp out;
      (seq, bytes)
    | Error (`Short received) ->
      fail "export ended short: %d of %d bytes" received bytes
    | Error `Bad_digest -> fail "export failed its checksum"
    | Error (`Stopped (Wire.Error err)) -> raise (E.Ddf_error err)
    | Error (`Stopped resp) -> unexpected Wire.Snapshot_export resp)
  | resp -> unexpected Wire.Snapshot_export resp

(* ------------------------------------------------------------------ *)
(* Result-typed variants                                               *)
(* ------------------------------------------------------------------ *)

(* Same calls, [Error e] instead of a raised exception — for callers
   that route on the error code (retry orchestration, degraded-mode
   UIs) without exception handlers. *)
let res f = match f () with v -> Ok v | exception E.Ddf_error e -> Error e

let ping_r t = res (fun () -> ping t)

let install_r t ~entity ?label ?keywords value =
  res (fun () -> install t ~entity ?label ?keywords value)

let trace_r t iid = res (fun () -> trace t iid)

(* ------------------------------------------------------------------ *)
(* Pool: read/write splitting over a replica set                       *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* Roles come from [stat]: each endpoint reports "primary" or
     "follower".  Reads round-robin over live followers (falling back
     to the primary when none are up); writes go to the primary.

     A write that fails with [`Unavailable] — the primary unreachable,
     shutting down, or a follower telling us we are mis-routed —
     re-probes every endpoint and retries once: the error asserts the
     request never executed, so resending is safe, and a promoted
     follower is adopted without restarting the client.  Any other
     error is final; in particular [`Ambiguous_commit] is NEVER
     resent — the caller must reconcile.  When no primary can be
     found the pool enters degraded mode: reads keep flowing to the
     followers (counted in [pool.degraded_reads]) while writes fail
     fast with [`Unavailable], until a re-probe finds a primary. *)

  let m_degraded_reads = Metrics.counter "pool.degraded_reads"

  type member = {
    ep : string;
    mutable conn : t option;
    mutable role : string;  (* "primary" | "follower" | "down" *)
  }

  type pool = {
    members : member list;
    p_user : string option;
    p_timeout : float option;
    p_deadline : float option;
    mutable p_degraded : bool;
    mutable rr : int;
  }

  let find_primary members =
    List.find_opt (fun m -> m.role = "primary" && m.conn <> None) members

  let probe pool m =
    (match m.conn with
    | Some c when c.closed -> m.conn <- None
    | Some _ | None -> ());
    (match m.conn with
    | Some _ -> ()
    | None -> (
      match
        connect ?user:pool.p_user ?timeout:pool.p_timeout
          ?deadline:pool.p_deadline ~socket:m.ep ()
      with
      | c -> m.conn <- Some c
      | exception E.Ddf_error _ -> ()));
    (match m.conn with
    | None -> m.role <- "down"
    | Some c -> (
      match stat c with
      | s -> m.role <- s.Wire.st_role
      | exception E.Ddf_error _ ->
        close c;
        m.conn <- None;
        m.role <- "down"));
    pool.p_degraded <- find_primary pool.members = None

  let connect ?user ?timeout ?deadline endpoints =
    let members =
      List.map (fun ep -> { ep; conn = None; role = "down" }) endpoints
    in
    let pool =
      { members; p_user = user; p_timeout = timeout; p_deadline = deadline;
        p_degraded = false; rr = 0 }
    in
    List.iter (probe pool) members;
    pool

  let endpoints pool = List.map (fun m -> (m.ep, m.role)) pool.members

  let degraded pool = pool.p_degraded

  let primary pool = find_primary pool.members

  let followers pool =
    List.filter
      (fun m -> m.role = "follower" && m.conn <> None)
      pool.members

  let write pool f =
    let attempt () =
      match primary pool with
      | Some { conn = Some c; _ } -> Some (f c)
      | Some { conn = None; _ } | None -> None
    in
    let reprobe_and_retry () =
      (* failover: a follower may have been promoted since we probed *)
      List.iter (probe pool) pool.members;
      match attempt () with
      | Some v ->
        pool.p_degraded <- false;
        v
      | None ->
        pool.p_degraded <- true;
        E.errorf ~retryable:false `Unavailable
          "no writable endpoint in the pool (degraded to follower reads)"
    in
    match attempt () with
    | Some v ->
      pool.p_degraded <- false;
      v
    | None -> reprobe_and_retry ()
    | exception E.Ddf_error err when err.E.code = `Unavailable ->
      (* [`Unavailable] asserts the write never executed, so resending
         on the re-probed primary cannot double-apply.  Everything
         else — including [`Ambiguous_commit] — propagates untouched. *)
      reprobe_and_retry ()

  let read pool f =
    let serve c =
      if pool.p_degraded then Metrics.incr m_degraded_reads;
      f c
    in
    let rec go tries =
      if tries = 0 then write pool f   (* primary serves reads too *)
      else
        match followers pool with
        | [] -> write pool f
        | fs -> (
          let m = List.nth fs (pool.rr mod List.length fs) in
          pool.rr <- pool.rr + 1;
          match m.conn with
          | None -> go (tries - 1)
          | Some c -> (
            match serve c with
            | v -> v
            | exception (E.Ddf_error err as e)
              when err.E.code = `Unavailable || err.E.code = `Timeout ->
              (* dead follower, or one mid-shutdown?  Re-probe: when
                 the endpoint is really gone the read moves on *)
              probe pool m;
              if m.role = "down" then go (tries - 1) else raise e))
    in
    go (List.length pool.members)

  (* One pipeline frame; primary iff any member mutates, since a
     follower rejects a batch that writes.  [batch] here is the
     single-connection pipeline above. *)
  let batch pool reqs =
    if List.exists Wire.is_mutation reqs then write pool (fun c -> batch c reqs)
    else read pool (fun c -> batch c reqs)

  let close pool =
    List.iter
      (fun m ->
        (match m.conn with
        | Some c -> ( try close c with E.Ddf_error _ -> ())
        | None -> ());
        m.conn <- None;
        m.role <- "down")
      pool.members
end
