(* Journal-shipping replication: follower convergence, write
   rejection, catch-up through primary compaction, promotion after a
   primary failure, replication lag reporting, client reconnect and
   pool failover, protocol-version negotiation. *)

open Ddf
module E = Standard_schemas.E

let seed = Test_server.seed

let rec wait_until ?(timeout = 10.0) ?(what = "condition") f =
  if not (f ()) then
    if timeout <= 0.0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      wait_until ~timeout:(timeout -. 0.02) ~what f
    end

(* A primary/follower pair over one scratch root.  [f] gets both
   server handles and the paths; stop order in the cleanup is
   follower-first so the follower never spins reconnecting. *)
let with_pair ?compact_every f =
  Test_journal.with_dir @@ fun root ->
  Unix.mkdir root 0o755;
  let pdir = Filename.concat root "p" and fdir = Filename.concat root "f" in
  let psock = Filename.concat root "p.sock"
  and fsock = Filename.concat root "f.sock" in
  let p =
    Server.start ~seed ?compact_every ~db:pdir ~socket:psock
      Standard_schemas.odyssey
  in
  let fl =
    Server.start ~follow:psock ~db:fdir ~socket:fsock Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop fl; Server.wait fl with _ -> ());
      (try Server.stop p; Server.wait p with _ -> ()))
    (fun () -> f ~p ~fl ~pdir ~fdir ~psock ~fsock)

let caught_up cp cf () =
  let sp = Client.stat cp and sf = Client.stat cf in
  sp.Wire.st_seq > 0 && sp.Wire.st_seq = sf.Wire.st_seq

(* Stop both daemons and compare the whole durable surface — store,
   history, meta-data, logical clock — plus the follower's own replay. *)
let assert_converged ~p ~fl ~fdir =
  Server.stop fl;
  Server.wait fl;
  Server.stop p;
  Server.wait p;
  let want = Test_journal.state (Server.context p) in
  Alcotest.(check string) "follower state equals primary"
    want
    (Test_journal.state (Server.context fl));
  (* the follower's journal is itself crash-safe: a fresh process
     replaying its directory sees the same database *)
  Test_journal.reopened_equals fdir want

let convergence =
  [
    Alcotest.test_case "a follower converges and serves reads" `Quick
      (fun () ->
        with_pair @@ fun ~p ~fl ~pdir:_ ~fdir ~psock ~fsock ->
        Client.with_client ~user:"writer" ~socket:psock @@ fun cp ->
        Client.with_client ~user:"reader" ~socket:fsock @@ fun cf ->
        let nl_iid, results = Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17" in
        Alcotest.(check bool) "ran" true (results <> []);
        wait_until ~what:"follower catch-up" (caught_up cp cf);
        (* the read surface is served by the follower itself *)
        Alcotest.(check string) "role" "follower" (Client.stat cf).Wire.st_role;
        let rows = Client.browse cf Test_server.no_filter in
        Alcotest.(check bool) "browse sees the replicated store" true
          (List.exists (fun r -> r.Wire.row_iid = nl_iid) rows);
        Alcotest.(check bool) "trace renders on the follower" true
          (Util.contains (Client.trace cf (List.hd results)) "performance");
        Alcotest.(check bool) "uses chains on the follower" true
          (List.mem (List.hd results) (Client.uses cf nl_iid));
        assert_converged ~p ~fl ~fdir);
    Alcotest.test_case "a follower rejects writes, allows local compaction"
      `Quick (fun () ->
        with_pair @@ fun ~p:_ ~fl:_ ~pdir:_ ~fdir:_ ~psock ~fsock ->
        Client.with_client ~socket:psock @@ fun cp ->
        Client.with_client ~socket:fsock @@ fun cf ->
        wait_until ~what:"seed catch-up" (caught_up cp cf);
        (match
           Client.install cf ~entity:E.stimuli ~label:"no"
             (Codec.value_to_sexp
                (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])))
         with
        | _ -> Alcotest.fail "expected a follower write rejection"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "names the primary" true
            (Util.contains (Error.message e) "read-only follower"
            && Util.contains (Error.message e) psock));
        (* local journal folding is not a logical write *)
        Client.compact cf);
    Alcotest.test_case "replication lag is reported and gauged" `Quick
      (fun () ->
        with_pair @@ fun ~p:_ ~fl:_ ~pdir:_ ~fdir:_ ~psock ~fsock ->
        Client.with_client ~socket:psock @@ fun cp ->
        Client.with_client ~socket:fsock @@ fun cf ->
        ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17");
        wait_until ~what:"follower catch-up" (caught_up cp cf);
        let seq = (Client.stat cp).Wire.st_seq in
        wait_until ~what:"acks to drain" (fun () ->
            match Client.lag cp with
            | _, [ row ] -> row.Wire.lag_acked = seq
            | _ -> false);
        let primary_seq, rows = Client.lag cp in
        Alcotest.(check int) "primary seq" seq primary_seq;
        (match rows with
        | [ row ] ->
          Alcotest.(check int) "acked through the head" seq row.Wire.lag_acked;
          Alcotest.(check bool) "sent through the head" true
            (row.Wire.lag_sent >= row.Wire.lag_acked);
          Alcotest.(check bool) "identifies the follower" true
            (Util.contains row.Wire.lag_follower "follower")
        | rows -> Alcotest.failf "expected one lag row, got %d" (List.length rows));
        (* the same watermarks drive the obs gauges *)
        Alcotest.(check (float 0.0)) "replica.seq gauge" (float_of_int seq)
          (Metrics.value (Metrics.gauge "replica.seq"));
        Alcotest.(check (float 0.0)) "replica.lag gauge" 0.0
          (Metrics.value (Metrics.gauge "replica.lag_entries"));
        Alcotest.(check (float 0.0)) "replica.followers gauge" 1.0
          (Metrics.value (Metrics.gauge "replica.followers")));
  ]

let compaction =
  [
    Alcotest.test_case "a late follower resyncs from a fresh snapshot" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun root ->
        Unix.mkdir root 0o755;
        let pdir = Filename.concat root "p"
        and fdir = Filename.concat root "f" in
        let psock = Filename.concat root "p.sock"
        and fsock = Filename.concat root "f.sock" in
        let p =
          Server.start ~seed ~db:pdir ~socket:psock Standard_schemas.odyssey
        in
        let resyncs () =
          Metrics.count (Metrics.counter "journal.snapshot_resyncs")
        in
        let r0 = resyncs () in
        (* write and compact before the follower first connects: its
           catch-up point predates the snapshot base, forcing the
           snapshot path *)
        Client.with_client ~user:"w" ~socket:psock (fun cp ->
            ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17");
            Client.compact cp);
        let fl =
          Server.start ~follow:psock ~db:fdir ~socket:fsock
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            (try Server.stop fl; Server.wait fl with _ -> ());
            (try Server.stop p; Server.wait p with _ -> ()))
          (fun () ->
            Client.with_client ~socket:psock @@ fun cp ->
            Client.with_client ~socket:fsock @@ fun cf ->
            wait_until ~what:"snapshot resync" (caught_up cp cf);
            Alcotest.(check bool) "went through the snapshot path" true
              (resyncs () > r0);
            assert_converged ~p ~fl ~fdir));
    Alcotest.test_case "a live stream survives primary compaction" `Quick
      (fun () ->
        with_pair @@ fun ~p ~fl ~pdir:_ ~fdir ~psock ~fsock ->
        (Client.with_client ~user:"w" ~socket:psock @@ fun cp ->
         Client.with_client ~socket:fsock @@ fun cf ->
         ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "a");
         wait_until ~what:"first catch-up" (caught_up cp cf);
         Client.compact cp;
         ignore (Test_server.perf_run cp (Eda.Circuits.full_adder ()) "b");
         wait_until ~what:"post-compaction catch-up" (caught_up cp cf));
        assert_converged ~p ~fl ~fdir);
  ]

let failover =
  [
    Alcotest.test_case "kill the primary, promote the follower" `Quick
      (fun () ->
        with_pair @@ fun ~p ~fl ~pdir:_ ~fdir ~psock ~fsock ->
        (Client.with_client ~user:"w" ~socket:psock @@ fun cp ->
         Client.with_client ~socket:fsock @@ fun cf ->
         ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17");
         wait_until ~what:"catch-up before the crash" (caught_up cp cf));
        (* the primary dies; the follower takes over *)
        Server.stop p;
        Server.wait p;
        Server.promote fl;
        Client.with_client ~user:"survivor" ~socket:fsock @@ fun cf ->
        Alcotest.(check string) "promoted" "primary" (Client.stat cf).Wire.st_role;
        let seq0 = (Client.stat cf).Wire.st_seq in
        let iid =
          Client.install cf ~entity:E.stimuli ~label:"after failover"
            (Codec.value_to_sexp
               (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])))
        in
        Alcotest.(check bool) "writes accepted and journaled" true
          ((Client.stat cf).Wire.st_seq > seq0);
        Alcotest.(check bool) "new instance visible" true
          (List.exists
             (fun r -> r.Wire.row_iid = iid)
             (Client.browse cf Test_server.no_filter));
        (* the promoted history replays like any other database *)
        Server.stop fl;
        Server.wait fl;
        Test_journal.reopened_equals fdir
          (Test_journal.state (Server.context fl)));
    Alcotest.test_case "a client rides out a daemon restart" `Quick (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey
        in
        let c = Client.connect ~user:"patient" ~retries:6 ~socket () in
        Client.ping c;
        let before = (Client.stat c).Wire.st_instances in
        Server.stop t;
        Server.wait t;
        (* restart behind the client's back, after a beat *)
        let restarted = ref None in
        let restarter =
          Thread.create
            (fun () ->
              Thread.delay 0.2;
              restarted :=
                Some (Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey))
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Thread.join restarter;
            match !restarted with
            | Some t2 -> (try Server.stop t2; Server.wait t2 with _ -> ())
            | None -> ())
          (fun () ->
            (* same connection object: redials with backoff and answers *)
            let after = (Client.stat c).Wire.st_instances in
            Alcotest.(check int) "same database" before after;
            Client.close c));
    Alcotest.test_case "a pool splits reads and fails over writes" `Quick
      (fun () ->
        with_pair @@ fun ~p ~fl ~pdir:_ ~fdir:_ ~psock ~fsock ->
        let pool = Client.Pool.connect ~user:"pooled" [ psock; fsock ] in
        Fun.protect ~finally:(fun () -> Client.Pool.close pool)
          (fun () ->
            Alcotest.(check (list (pair string string))) "classified"
              [ (psock, "primary"); (fsock, "follower") ]
              (Client.Pool.endpoints pool);
            (* reads land on the follower, writes on the primary *)
            Alcotest.(check string) "read from the follower" "follower"
              (Client.Pool.read pool (fun c -> (Client.stat c).Wire.st_role));
            let iid =
              Client.Pool.write pool (fun c ->
                  Client.install c ~entity:E.stimuli ~label:"pooled"
                    (Codec.value_to_sexp
                       (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))))
            in
            (Client.with_client ~socket:psock @@ fun cp ->
             Client.with_client ~socket:fsock @@ fun cf ->
             wait_until ~what:"pooled write to replicate" (caught_up cp cf));
            Alcotest.(check bool) "write replicated to the read side" true
              (Client.Pool.read pool (fun c ->
                   List.exists
                     (fun r -> r.Wire.row_iid = iid)
                     (Client.browse c Test_server.no_filter)));
            (* primary dies; operator promotes; the pool re-probes and
               adopts the survivor for writes *)
            Server.stop p;
            Server.wait p;
            Server.promote fl;
            let iid2 =
              Client.Pool.write pool (fun c ->
                  Client.install c ~entity:E.stimuli ~label:"after failover"
                    (Codec.value_to_sexp
                       (Value.Stimuli (Eda.Stimuli.exhaustive [ "b" ]))))
            in
            Alcotest.(check bool) "post-failover write landed" true
              (Client.Pool.read pool (fun c ->
                   List.exists
                     (fun r -> r.Wire.row_iid = iid2)
                     (Client.browse c Test_server.no_filter)))));
  ]

let versioning =
  [
    Alcotest.test_case "a protocol version mismatch is refused, typed" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
        Fun.protect
          ~finally:(fun () -> Server.stop t; Server.wait t)
          (fun () ->
            (* a v8 peer's hello, sent as a binary frame *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            (Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
             Unix.connect fd (Unix.ADDR_UNIX socket);
             Wire.send_request fd (Wire.Hello { user = "old"; version = 8 });
             (match Wire.recv_response fd with
             | Some (Wire.Error e, _) ->
               Alcotest.(check bool) "typed mismatch error" true
                 (Util.contains (Error.message e) "protocol version mismatch"
                 && Util.contains (Error.message e) "v8")
             | _ -> Alcotest.fail "expected a version refusal");
             (* and the refusal ends the connection *)
             Alcotest.(check bool) "connection closed" true
               (Wire.recv_response fd = None));
            (* current version still welcome on the same daemon *)
            Client.with_client ~socket Client.ping));
  ]

let suite =
  [
    ("replica.convergence", convergence);
    ("replica.compaction", compaction);
    ("replica.failover", failover);
    ("replica.versioning", versioning);
  ]
