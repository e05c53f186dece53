(* Telemetry: trace-context tokens and frame headers, histogram
   quantile accuracy against a sorted-array oracle, the Metrics wire
   verb under version negotiation, and end-to-end distributed trace
   assembly — a retried client write, the primary's dispatch/write
   spans and the follower's apply all sharing one trace id inside a
   single recording. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let seed = Test_server.seed

let stim_sexp =
  Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))

(* Record every event emitted while [f] runs. *)
let recording f =
  let sink, events = Obs_sinks.memory () in
  Obs.set_sink sink;
  Fun.protect ~finally:Obs.clear_sink f;
  events ()

(* ------------------------------------------------------------------ *)
(* Trace-context tokens and frame headers                              *)
(* ------------------------------------------------------------------ *)

let hex_char =
  QCheck.Gen.oneofl
    [ '0'; '1'; '2'; '3'; '4'; '5'; '6'; '7'; '8'; '9'; 'a'; 'b'; 'c'; 'd';
      'e'; 'f' ]

let ctx_gen =
  QCheck.Gen.map2
    (fun trace_id sid ->
      { Obs.trace_id; Obs.span_id = sid + 1; Obs.parent_id = 0 })
    (QCheck.Gen.string_size ~gen:hex_char (QCheck.Gen.return 16))
    (QCheck.Gen.int_bound ((1 lsl 59) - 1))

let ctx_arb =
  QCheck.make
    ~print:(fun c -> Obs.span_ctx_to_token c)
    ctx_gen

let token_roundtrip =
  QCheck.Test.make ~name:"a span context round-trips through its token"
    ~count:500 ctx_arb (fun ctx ->
      Obs.span_ctx_of_token (Obs.span_ctx_to_token ctx) = Some ctx)

(* The wire-level version: the context rides the frame header next to
   (and independently of) the deadline field. *)
let header_roundtrip =
  QCheck.Test.make ~name:"a span context round-trips through a frame header"
    ~count:100
    QCheck.(pair ctx_arb (option (int_bound 100_000)))
    (fun (ctx, deadline_ms) ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          Wire.send_request ?deadline_ms ~trace:ctx a Wire.Ping;
          match Wire.recv_request b with
          | None -> false
          | Some (req, meta) ->
            req = Wire.Ping
            && meta.Wire.fm_deadline_ms = deadline_ms
            && meta.Wire.fm_trace = Some ctx))

let malformed_tokens () =
  List.iter
    (fun tok ->
      check Alcotest.bool (Printf.sprintf "%S is rejected" tok) true
        (Obs.span_ctx_of_token tok = None))
    [
      "";
      "t=";
      "t=abc";
      (* trace id too short *)
      "t=0123456789abcde.1";
      (* span id zero *)
      "t=0123456789abcdef.0";
      (* non-hex characters *)
      "t=0123456789abcdeg.1";
      "t=0123456789abcdef.1x";
      (* missing the separator *)
      "t=0123456789abcdef";
      "x=0123456789abcdef.1";
    ]

let bare_frames_still_parse () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* no deadline, no trace: the bare header *)
      Wire.send_request a Wire.Ping;
      (match Wire.recv_request b with
      | Some (_, meta) ->
        check Alcotest.bool "no deadline" true (meta.Wire.fm_deadline_ms = None);
        check Alcotest.bool "no trace" true (meta.Wire.fm_trace = None)
      | None -> Alcotest.fail "eof on a bare frame");
      (* deadline without trace *)
      Wire.send_request ~deadline_ms:42 a Wire.Ping;
      match Wire.recv_request b with
      | Some (_, meta) ->
        check Alcotest.bool "deadline alone" true (meta.Wire.fm_deadline_ms = Some 42);
        check Alcotest.bool "still no trace" true (meta.Wire.fm_trace = None)
      | None -> Alcotest.fail "eof on a deadline frame")

let metrics_codec_roundtrip () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter ~registry:reg "c1");
  Metrics.set (Metrics.gauge ~registry:reg "g1") 2.5;
  let h = Metrics.histogram ~registry:reg "h1" in
  List.iter (Metrics.observe h) [ 1.0; 10.0; 100.0 ];
  ignore (Metrics.histogram ~registry:reg "h0" : Metrics.histogram);
  let ms = Metrics.snapshot reg in
  check Alcotest.bool "snapshot includes the empty histogram" true
    (List.exists (fun m -> Metrics.metric_name m = "h0") ms);
  match
    Wire.response_of_binary_string
      (Wire.response_to_binary_string (Wire.Ok_metrics ms))
  with
  | Wire.Ok_metrics ms' ->
    check Alcotest.bool "metrics round-trip the response codec exactly" true (ms = ms')
  | _ -> Alcotest.fail "Ok_metrics decoded as something else"

(* ------------------------------------------------------------------ *)
(* Quantiles vs a sorted-array oracle                                  *)
(* ------------------------------------------------------------------ *)

let quantile_oracle () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "oracle" in
  let rng = Random.State.make [| 0xbeef |] in
  let n = 5000 in
  (* log-uniform over ~5 decades: every octave of the bucket table
     gets traffic *)
  let values =
    Array.init n (fun _ -> Float.exp (Random.State.float rng 11.0))
  in
  Array.iter (Metrics.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let want = sorted.(min (n - 1) (int_of_float (q *. float_of_int n))) in
      let got = Metrics.quantile h q in
      let rel = Float.abs (got -. want) /. want in
      if rel > 0.15 then
        Alcotest.failf "q%.2f: got %g, oracle %g (relative error %.3f)" q got
          want rel)
    [ 0.5; 0.9; 0.99 ]

(* Stage timings recorded in seconds sit far below 1: their quantiles
   must resolve there as well as microsecond timings do above it. *)
let sub_unit_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "seconds" in
  let rng = Random.State.make [| 0x5ec |] in
  let n = 4000 in
  (* log-uniform over 1e-5 .. 1e-2 s *)
  let values =
    Array.init n (fun _ ->
        1e-5 *. Float.pow 10.0 (Random.State.float rng 3.0))
  in
  Array.iter (Metrics.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let want = sorted.(min (n - 1) (int_of_float (q *. float_of_int n))) in
      let got = Metrics.quantile h q in
      (* one bucket is a factor of 2^(1/8) wide *)
      let rel = Float.abs (got -. want) /. want in
      if rel > Float.pow 2.0 0.125 -. 1.0 then
        Alcotest.failf "q%.2f: got %g, oracle %g (relative error %.3f)" q got
          want rel)
    [ 0.5; 0.9; 0.99 ]

(* The 1-based bucket table histograms had before the sub-unit range:
   bucket 0 holds every value <= 1, bucket i > 0 holds
   (2^((i-1)/8), 2^(i/8)], 256 buckets.  Quantiles over values above 1
   must read exactly as they did. *)
let one_based_quantile values q =
  let count = 256 in
  let bound i = Float.pow 2.0 (float_of_int i /. 8.0) in
  let bucket v =
    if v <= 1.0 then 0
    else min (max (int_of_float (ceil (8.0 *. Float.log2 v))) 0) (count - 1)
  in
  let buckets = Array.make count 0 in
  Array.iter (fun v -> buckets.(bucket v) <- buckets.(bucket v) + 1) values;
  let n = Array.length values in
  let lo_v = Array.fold_left Float.min infinity values
  and hi_v = Array.fold_left Float.max neg_infinity values in
  let rank = q *. float_of_int n in
  let rec walk i cum =
    let cum' = cum +. float_of_int buckets.(i) in
    if cum' >= rank && buckets.(i) > 0 then
      let lo = if i = 0 then 0.0 else bound (i - 1) in
      let frac = (rank -. cum) /. float_of_int buckets.(i) in
      let v = lo +. ((bound i -. lo) *. Float.min 1.0 (Float.max 0.0 frac)) in
      Float.min hi_v (Float.max lo_v v)
    else walk (i + 1) cum'
  in
  walk 0 0.0

let microsecond_quantiles_unchanged () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "us" in
  let rng = Random.State.make [| 0x55 |] in
  let values =
    Array.init 3000 (fun _ -> 1.0 +. Float.exp (Random.State.float rng 16.0))
  in
  Array.iter (Metrics.observe h) values;
  List.iter
    (fun q ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "q%.2f" q)
        (one_based_quantile values q) (Metrics.quantile h q))
    [ 0.5; 0.9; 0.99 ]

(* ------------------------------------------------------------------ *)
(* The Metrics verb                                                    *)
(* ------------------------------------------------------------------ *)

let metrics_verb () =
  Test_server.with_server @@ fun _t ~dir:_ ~socket ->
  Client.with_client ~user:"metrics" ~socket @@ fun c ->
  Client.ping c;
  let ms = Client.metrics c in
  let has name = List.exists (fun m -> Metrics.metric_name m = name) ms in
  check Alcotest.bool "server.requests counter present" true (has "server.requests");
  match
    List.find_opt
      (function
        | Metrics.Histogram ("server.request_us", _) -> true | _ -> false)
      ms
  with
  | Some (Metrics.Histogram (_, h)) ->
    check Alcotest.bool "request latency has samples" true (h.Metrics.hs_n > 0);
    check Alcotest.bool "quantiles are ordered" true
      (h.Metrics.hs_p50 <= h.Metrics.hs_p90
      && h.Metrics.hs_p90 <= h.Metrics.hs_p99
      && h.Metrics.hs_p99 <= h.Metrics.hs_max)
  | _ -> Alcotest.fail "no server.request_us histogram in the snapshot"

(* ------------------------------------------------------------------ *)
(* Cross-process trace assembly                                        *)
(* ------------------------------------------------------------------ *)

(* One recording over an in-process client + primary + follower: the
   client's root span context travels the frame header into the
   primary's dispatch, through the write queue into the journal, and
   on the replication stream into the follower's apply — every Begin
   along the way carries the same trace id.  A stalled commit and a
   one-slot queue force a shed on the first attempt, so the retry
   path is part of the assembled trace too. *)
let trace_assembly () =
  Test_journal.with_dir @@ fun root ->
  Unix.mkdir root 0o755;
  let pdir = Filename.concat root "p" and fdir = Filename.concat root "f" in
  let psock = Filename.concat root "p.sock"
  and fsock = Filename.concat root "f.sock" in
  let p =
    Server.start ~seed ~max_queue:1 ~db:pdir ~socket:psock
      Standard_schemas.odyssey
  in
  let fl =
    Server.start ~follow:psock ~db:fdir ~socket:fsock Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      (try Server.stop fl; Server.wait fl with _ -> ());
      (try Server.stop p; Server.wait p with _ -> ()))
  @@ fun () ->
  let events =
    recording @@ fun () ->
    Obs.with_span ~cat:"test" "test.root" @@ fun () ->
    Client.with_client ~user:"traced" ~retries:8 ~socket:psock @@ fun c ->
    (* stall a commit on an untraced job and fill the single queue
       slot so the traced install is shed (retryably) at least once;
       each stage is confirmed by polling process-global state rather
       than by sleeping, so the sequence survives a loaded machine *)
    let await what n cond =
      let rec go n =
        if not (cond ()) then begin
          if n = 0 then Alcotest.fail (what ^ ": never happened");
          Thread.delay 0.01;
          go (n - 1)
        end
      in
      go n
    in
    (* the follower's commits share the process-global fault registry:
       let it finish applying the seed first, so the armed stall is
       consumed by the primary's commit and not by a catch-up batch *)
    Client.with_client ~user:"sync" ~socket:fsock (fun cf ->
        await "initial catch-up" 500 (fun () ->
            let sp = Client.stat c and sf = Client.stat cf in
            sp.Wire.st_seq > 0 && sp.Wire.st_seq = sf.Wire.st_seq));
    let fired0 = Fault.fired "server.writer_stall" in
    Fault.arm ~times:1 "server.writer_stall" (Fault.Delay 1.0);
    let trigger =
      Thread.create
        (fun () ->
          Client.with_client ~user:"trigger" ~socket:psock @@ fun c2 ->
          ignore
            (Client.install c2 ~entity:E.stimuli ~label:"trigger" stim_sexp))
        ()
    in
    (* the trigger job's own commit is inside the stall *)
    await "commit stall" 500 (fun () ->
        Fault.fired "server.writer_stall" > fired0);
    let muts0 = Metrics.count (Metrics.counter "server.mutations") in
    let filler =
      Thread.create
        (fun () ->
          Client.with_client ~user:"filler" ~socket:psock @@ fun c2 ->
          ignore
            (Client.install c2 ~entity:E.stimuli ~label:"filler" stim_sexp))
        ()
    in
    (* the filler's install was admitted: it holds the one queue slot *)
    await "filler admission" 500 (fun () ->
        Metrics.count (Metrics.counter "server.mutations") > muts0);
    Thread.delay 0.02 (* counter increments just before the enqueue *);
    ignore (Client.install c ~entity:E.stimuli ~label:"traced" stim_sexp);
    Thread.join trigger;
    Thread.join filler;
    (* hold the recording open until the follower has applied it all *)
    Client.with_client ~user:"reader" ~socket:fsock @@ fun cf ->
    let caught_up () =
      let sp = Client.stat c and sf = Client.stat cf in
      sp.Wire.st_seq > 0 && sp.Wire.st_seq = sf.Wire.st_seq
    in
    let rec wait n =
      if not (caught_up ()) then begin
        if n = 0 then Alcotest.fail "follower never caught up";
        Thread.delay 0.05;
        wait (n - 1)
      end
    in
    wait 200
  in
  (* the trigger/filler clients trace too (fresh roots on their own
     threads), so anchor on the test's root span, not on whichever
     client.request was recorded first *)
  let root_trace =
    match
      List.find_opt
        (fun ev -> ev.Obs.name = "test.root" && ev.Obs.kind = Obs.Begin)
        events
    with
    | Some { Obs.span = Some c; _ } -> c.Obs.trace_id
    | _ -> Alcotest.fail "no test.root span was recorded"
  in
  let begins_in_trace name =
    List.length
      (List.filter
         (fun ev ->
           ev.Obs.name = name
           && ev.Obs.kind = Obs.Begin
           &&
           match ev.Obs.span with
           | Some c -> c.Obs.trace_id = root_trace
           | None -> false)
         events)
  in
  check Alcotest.bool "the shed attempt produced a client.retry instant" true
    (List.exists
       (fun ev ->
         ev.Obs.name = "client.retry"
         &&
         match ev.Obs.span with
         | Some c -> c.Obs.trace_id = root_trace
         | None -> false)
       events);
  check Alcotest.bool "a traced client.request was recorded" true
    (begins_in_trace "client.request" >= 1);
  check Alcotest.bool "more than one attempt joined the trace" true
    (begins_in_trace "client.attempt" >= 2);
  check Alcotest.bool "server dispatches joined the trace" true
    (begins_in_trace "server.dispatch" >= 1);
  check Alcotest.bool "the writer job joined the trace" true
    (begins_in_trace "server.write_job" >= 1);
  check Alcotest.bool "the follower apply joined the trace" true
    (begins_in_trace "follower.apply" >= 1)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "telemetry.context",
      [
        QCheck_alcotest.to_alcotest token_roundtrip;
        QCheck_alcotest.to_alcotest header_roundtrip;
        t "malformed tokens are rejected" malformed_tokens;
        t "bare and deadline-only frames still parse" bare_frames_still_parse;
        t "metrics snapshots round-trip the response codec"
          metrics_codec_roundtrip;
      ] );
    ( "telemetry.quantiles",
      [ t "p50/p90/p99 track a sorted-array oracle" quantile_oracle;
        t "seconds below 1 resolve within one bucket" sub_unit_quantiles;
        t "values above 1 read as on the 1-based table"
          microsecond_quantiles_unchanged ] );
    ( "telemetry.versioning",
      [ t "a client fetches request-latency quantiles" metrics_verb ] );
    ( "telemetry.assembly",
      [
        t "client retry, primary spans and follower apply share one trace"
          trace_assembly;
      ] );
  ]
