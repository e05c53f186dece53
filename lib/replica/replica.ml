(* Journal-shipping replication: the transport pieces shared by the
   primary (Outbox) and the follower daemon (Feed, Follower).

   The protocol rides on Ddf_wire.  A follower connects to the primary
   like any client, says Hello, then sends [Subscribe since]; from
   that point the connection is a replication stream: the primary
   pushes an optional streamed snapshot followed by [Ok_frame]s forever,
   and the follower answers only with [Repl_ack]s.  Frames carry the
   journal's global seqnos and md5 digests, so a follower detects both
   gaps and corruption before anything touches its database.

   Threading: an [Outbox] owns the send side of a replication
   connection (one sender thread, bounded queue) so the primary's
   group commit never blocks on a slow follower — a follower that falls
   more than [cap] frames behind is evicted and must reconnect, which
   lands it on the catch-up path.  A [Follower] owns one background
   thread that keeps a Feed alive with bounded exponential backoff and
   pumps every event into the caller's [apply]/[reset_file] hooks. *)

module Wire = Ddf_wire.Wire
module Metrics = Ddf_obs.Metrics
module Obs = Ddf_obs.Obs

exception Replica_error of string

let replica_errorf fmt = Printf.ksprintf (fun s -> raise (Replica_error s)) fmt

let m_frames_sent = Metrics.counter "replica.frames_sent"
let m_snapshots_streamed = Metrics.counter "replica.snapshots_streamed"
let m_evicted = Metrics.counter "replica.followers_evicted"
let m_reconnects = Metrics.counter "replica.follower_reconnects"

let digest_hex payload = Digest.to_hex (Digest.string payload)

(* Stream a pinned snapshot descriptor as begin/chunk/end frames.  The
   caller opened [fd] while the writer was excluded, so the descriptor
   pins the snapshot inode — a later compaction renames a fresh file
   into place but cannot disturb these bytes.  Two passes: one for the
   md5, one for the chunks; at no point is more than one chunk in
   memory.  Closes [fd].  [send] must raise to abort the stream. *)
let stream_snapshot ~send ~seq fd =
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  seek_in ic 0;
  let digest = Digest.to_hex (Digest.channel ic size) in
  seek_in ic 0;
  send (Wire.Ok_snapshot_begin { seq; bytes = size });
  let buf = Bytes.create Wire.snapshot_chunk_bytes in
  let rec go remaining =
    if remaining > 0 then begin
      let k = min remaining (Bytes.length buf) in
      really_input ic buf 0 k;
      send (Wire.Ok_snapshot_chunk { data = Bytes.sub_string buf 0 k });
      go (remaining - k)
    end
  in
  go size;
  send (Wire.Ok_snapshot_end { digest });
  Metrics.incr m_snapshots_streamed

(* ------------------------------------------------------------------ *)
(* Feed: the follower's view of the stream                             *)
(* ------------------------------------------------------------------ *)

module Feed = struct
  type event =
    | Snapshot_file of { seq : int; path : string }
    | Frame of { seq : int; payload : string; trace : Obs.span_ctx option }

  type t = {
    fd : Unix.file_descr;
    rx : Wire.receiver;
    spool : string;
    mutable closed : bool;
  }

  let connect ?(user = "follower") ~spool ~socket ~since () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise (Replica_error s))
        fmt
    in
    (match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      fail "cannot connect to primary %s: %s" socket (Unix.error_message e));
    let rx = Wire.receiver fd in
    (match
       Wire.send_request fd (Wire.hello user);
       Wire.recv_response rx
     with
    | Some (Wire.Ok_unit, _) -> ()
    | Some (Wire.Error err, _) ->
      fail "primary refused hello: %s" (Ddf_core.Error.to_string err)
    | Some _ -> fail "unexpected response to hello"
    | None -> fail "primary closed the connection during hello"
    | exception Wire.Wire_error m -> fail "%s" m);
    (match Wire.send_request fd (Wire.Subscribe since) with
    | () -> ()
    | exception Wire.Wire_error m -> fail "%s" m);
    { fd; rx; spool; closed = false }

  let spool_snapshot t ~seq ~bytes =
    let path =
      try Filename.temp_file ~temp_dir:t.spool "snapshot" ".spool"
      with Sys_error m -> replica_errorf "cannot spool snapshot: %s" m
    in
    let recv () =
      match Wire.recv_response t.rx with
      | Some (resp, _) -> resp
      | None -> replica_errorf "primary closed the stream mid-snapshot"
      | exception Wire.Wire_error m -> replica_errorf "%s" m
      | exception Unix.Unix_error (e, _, _) ->
        replica_errorf "snapshot stream: %s" (Unix.error_message e)
    in
    match Wire.receive_snapshot ~recv ~bytes path with
    | Ok () -> Snapshot_file { seq; path }
    | Error (`Short received) ->
      replica_errorf "snapshot stream ended short: %d of %d bytes" received
        bytes
    | Error `Bad_digest -> replica_errorf "snapshot stream failed its checksum"
    | Error (`Stopped (Wire.Error err)) ->
      replica_errorf "primary: %s" (Ddf_core.Error.to_string err)
    | Error (`Stopped _) ->
      replica_errorf "unexpected message inside a snapshot stream"

  let next t =
    if t.closed then replica_errorf "feed is closed";
    match Wire.recv_response t.rx with
    | None -> replica_errorf "primary closed the replication stream"
    | exception Wire.Wire_error m -> replica_errorf "%s" m
    | exception Unix.Unix_error (e, _, _) ->
      replica_errorf "replication stream: %s" (Unix.error_message e)
    | Some (resp, meta) -> (
      match resp with
      | Wire.Ok_snapshot_begin { seq; bytes } -> spool_snapshot t ~seq ~bytes
      | Wire.Ok_frame { seq; payload; digest } ->
        if not (String.equal (digest_hex payload) digest) then
          replica_errorf "frame %d failed its checksum in transit" seq;
        Frame { seq; payload; trace = meta.Wire.fm_trace }
      | Wire.Error err ->
        replica_errorf "primary: %s" (Ddf_core.Error.to_string err)
      | _ -> replica_errorf "unexpected message on the replication stream")

  let ack t seq =
    if not t.closed then
      match Wire.send_request t.fd (Wire.Repl_ack seq) with
      | () -> ()
      | exception Wire.Wire_error _ -> ()
      | exception Unix.Unix_error _ -> ()

  let close t =
    if not t.closed then begin
      t.closed <- true;
      (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  (* For [Follower.stop]: unblock a reader stuck in [next] without
     releasing the descriptor out from under it. *)
  let interrupt t =
    try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Outbox: the primary's per-follower send queue                       *)
(* ------------------------------------------------------------------ *)

module Outbox = struct
  type msg =
    | Resp of Wire.response
    | Stream_snapshot of { sf_seq : int; sf_fd : Unix.file_descr }
        (* a snapshot to stream as begin/chunk/end; the descriptor was
           opened with the writer excluded, pinning the inode *)

  type t = {
    ob_name : string;
    ob_fd : Unix.file_descr;
    ob_cap : int;
    ob_m : Mutex.t;
    ob_c : Condition.t;
    (* each queued message keeps the span context of the write that
       produced it, so the frame's header carries the trace onward *)
    ob_q : (msg * Obs.span_ctx option) Queue.t;
    mutable ob_dead : bool;
    mutable ob_sent : int;   (* highest seqno enqueued for this follower *)
    mutable ob_acked : int;  (* highest seqno it acknowledged *)
    mutable ob_sender : Thread.t option;
  }

  let kill_locked t =
    if not t.ob_dead then begin
      t.ob_dead <- true;
      (* queued snapshot descriptors would otherwise leak *)
      Queue.iter
        (function
          | Stream_snapshot { sf_fd; _ }, _ ->
            (try Unix.close sf_fd with Unix.Unix_error _ -> ())
          | Resp _, _ -> ())
        t.ob_q;
      Queue.clear t.ob_q;
      Condition.broadcast t.ob_c;
      (* The connection's ack loop owns the descriptor; shutting it
         down fails that loop's recv, which unregisters and closes. *)
      try Unix.shutdown t.ob_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
    end

  let sender_loop t =
    let rec next () =
      Mutex.lock t.ob_m;
      let rec await () =
        if t.ob_dead then None
        else if not (Queue.is_empty t.ob_q) then
          match Queue.pop t.ob_q with
          | (Stream_snapshot _, _) as m -> Some [ m ]
          | (Resp _, _) as m ->
            (* drain the contiguous run of queued responses: the whole
               group — typically one group commit's fan-out — flushes
               below as a single gathered write *)
            let rec run acc =
              match Queue.peek_opt t.ob_q with
              | Some (Resp _, _) -> run (Queue.pop t.ob_q :: acc)
              | Some (Stream_snapshot _, _) | None -> List.rev acc
            in
            Some (run [ m ])
        else begin
          Condition.wait t.ob_c t.ob_m;
          await ()
        end
      in
      let batch = await () in
      Mutex.unlock t.ob_m;
      match batch with
      | None -> ()
      | Some [ (Stream_snapshot { sf_seq; sf_fd }, _) ] ->
        (match
           stream_snapshot ~seq:sf_seq sf_fd
             ~send:(Wire.send_response t.ob_fd)
         with
        | () -> next ()
        | exception Wire.Wire_error _ | exception Unix.Unix_error _
        | exception Sys_error _ | exception End_of_file ->
          Mutex.lock t.ob_m;
          kill_locked t;
          Mutex.unlock t.ob_m)
      | Some batch ->
        let items =
          List.filter_map
            (function
              | Resp r, trace -> Some (r, trace)
              | Stream_snapshot _, _ -> None)
            batch
        in
        (match Wire.send_response_batch t.ob_fd items with
        | () -> next ()
        | exception Wire.Wire_error _ | exception Unix.Unix_error _ ->
          Mutex.lock t.ob_m;
          kill_locked t;
          Mutex.unlock t.ob_m)
    in
    next ()

  let create ?(cap = 65536) ~name fd =
    let t =
      { ob_name = name; ob_fd = fd; ob_cap = cap;
        ob_m = Mutex.create ();
        ob_c = Condition.create (); ob_q = Queue.create (); ob_dead = false;
        ob_sent = 0; ob_acked = 0; ob_sender = None }
    in
    t.ob_sender <- Some (Thread.create sender_loop t);
    t

  let name t = t.ob_name

  let push ?trace t resp =
    Mutex.lock t.ob_m;
    if not t.ob_dead then begin
      if Queue.length t.ob_q >= t.ob_cap then begin
        (* hopelessly behind: cut it loose rather than buffer forever *)
        Metrics.incr m_evicted;
        kill_locked t
      end
      else begin
        (match resp with
        | Wire.Ok_frame { seq; _ } ->
          t.ob_sent <- max t.ob_sent seq;
          Metrics.incr m_frames_sent
        | _ -> ());
        Queue.push (Resp resp, trace) t.ob_q;
        Condition.signal t.ob_c
      end
    end;
    Mutex.unlock t.ob_m

  (* Enqueue a pinned snapshot descriptor to be streamed in chunks;
     the outbox owns [fd] from here on. *)
  let push_snapshot_fd t ~seq fd =
    Mutex.lock t.ob_m;
    if t.ob_dead then begin
      Mutex.unlock t.ob_m;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      t.ob_sent <- max t.ob_sent seq;
      t.ob_acked <- max t.ob_acked seq;
      Queue.push (Stream_snapshot { sf_seq = seq; sf_fd = fd }, None) t.ob_q;
      Condition.signal t.ob_c;
      Mutex.unlock t.ob_m
    end

  let note_ack t seq =
    Mutex.lock t.ob_m;
    if seq > t.ob_acked then t.ob_acked <- seq;
    Mutex.unlock t.ob_m

  let sent t =
    Mutex.lock t.ob_m;
    let v = t.ob_sent in
    Mutex.unlock t.ob_m;
    v

  let acked t =
    Mutex.lock t.ob_m;
    let v = t.ob_acked in
    Mutex.unlock t.ob_m;
    v

  let alive t =
    Mutex.lock t.ob_m;
    let v = not t.ob_dead in
    Mutex.unlock t.ob_m;
    v

  let close t =
    Mutex.lock t.ob_m;
    kill_locked t;
    let sender = t.ob_sender in
    t.ob_sender <- None;
    Mutex.unlock t.ob_m;
    Option.iter Thread.join sender
end

(* ------------------------------------------------------------------ *)
(* Follower: the reconnecting stream driver                            *)
(* ------------------------------------------------------------------ *)

module Follower = struct
  type t = {
    f_primary : string;
    f_m : Mutex.t;
    mutable f_stopped : bool;
    mutable f_feed : Feed.t option;
    mutable f_thread : Thread.t option;
  }

  let backoff_initial = 0.05
  let backoff_max = 2.0

  let stopped t =
    Mutex.lock t.f_m;
    let v = t.f_stopped in
    Mutex.unlock t.f_m;
    v

  (* Sleep [d] in small slices so [stop] never waits long. *)
  let interruptible_sleep t d =
    let slice = 0.05 in
    let rec go left =
      if left > 0.0 && not (stopped t) then begin
        Thread.delay (Float.min slice left);
        go (left -. slice)
      end
    in
    go d

  let drive t ~name ~spool ~current_seq ~apply ~reset_file ~on_error () =
    let reset_spooled ~seq path =
      reset_file ~seq path;
      (* the hook usually renames the spool into place; clean up if not *)
      if Sys.file_exists path then
        (try Sys.remove path with Sys_error _ -> ())
    in
    let rec attempt backoff =
      if not (stopped t) then begin
        match Feed.connect ~user:name ~spool ~socket:t.f_primary
                ~since:(current_seq ()) ()
        with
        | exception Replica_error m ->
          if not (stopped t) then begin
            on_error m;
            interruptible_sleep t backoff;
            attempt (Float.min (backoff *. 2.0) backoff_max)
          end
        | feed ->
          Mutex.lock t.f_m;
          let usable = not t.f_stopped in
          if usable then t.f_feed <- Some feed;
          Mutex.unlock t.f_m;
          if not usable then Feed.close feed
          else begin
            Metrics.incr m_reconnects;
            (match
               let rec pump () =
                 (match Feed.next feed with
                 | Feed.Snapshot_file { seq; path } -> reset_spooled ~seq path
                 | Feed.Frame { seq; payload; trace } ->
                   apply ~trace ~seq payload);
                 Feed.ack feed (current_seq ());
                 pump ()
               in
               pump ()
             with
            | () -> ()
            | exception Replica_error m -> if not (stopped t) then on_error m
            | exception e -> if not (stopped t) then on_error (Printexc.to_string e));
            Mutex.lock t.f_m;
            t.f_feed <- None;
            Mutex.unlock t.f_m;
            Feed.close feed;
            (* a fresh connect restarts catch-up from [current_seq ()] *)
            interruptible_sleep t backoff_initial;
            attempt backoff_initial
          end
      end
    in
    attempt backoff_initial

  let start ?(name = "follower") ~spool ~primary ~current_seq ~apply
      ~reset_file ?(on_error = fun _ -> ()) () =
    let t =
      { f_primary = primary; f_m = Mutex.create (); f_stopped = false;
        f_feed = None; f_thread = None }
    in
    t.f_thread <-
      Some
        (Thread.create
           (fun () ->
             drive t ~name ~spool ~current_seq ~apply ~reset_file ~on_error
               ())
           ());
    t

  let primary t = t.f_primary

  let stop t =
    Mutex.lock t.f_m;
    t.f_stopped <- true;
    let feed = t.f_feed in
    let thread = t.f_thread in
    t.f_thread <- None;
    Mutex.unlock t.f_m;
    Option.iter Feed.interrupt feed;
    Option.iter Thread.join thread
end
