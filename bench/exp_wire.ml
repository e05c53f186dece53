(* Experiment W: the binary wire codec.

   Three layers: (1) codec microbenchmarks — encode and decode ns per
   frame and bytes per frame over representative requests/responses;
   (2) framed transport throughput for large payload bodies over a
   socketpair (the zero-copy slice path); (3) an end-to-end mini rerun
   of experiment S's shape: one server and one client driving an
   install/browse workload, singly and as pipelined batches.  Between
   (2) and (3), round trips of small frames: read(2)s per frame
   received over a socketpair ping-pong, plain and with deadline and
   trace header fields ([wire.bench.reads_per_frame], the worse of the
   two), and the round trip's median there and against a daemon.  Exported
   as gauges for --json; the codec medians also scaled by a host
   reference chunk timed among the frames
   ([wire.bench.{encode,decode}_ns_median_scaled]). *)

open Ddf
module E = Standard_schemas.E

let fresh_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-wire-%d" (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Representative frames                                               *)
(* ------------------------------------------------------------------ *)

let meta =
  { Store.user = "designer"; created_at = 42; label = "netlist v3";
    comment = "seeded from the walkthrough"; keywords = [ "bench"; "wire" ] }

let filter =
  { Store.f_entities = Some [ E.stimuli; E.edited_netlist ];
    f_user = Some "designer"; f_from = Some 10; f_to = Some 99_999;
    f_keywords = [ "adder" ]; f_text = Some "v3" }

let payload n = String.init n (fun i -> Char.chr (0x20 + (i land 0x5f)))

let sample_requests =
  [
    ("req ping", Wire.Ping);
    ("req run", Wire.Run 12);
    ("req browse", Wire.Browse filter);
    ( "req install",
      Wire.Install
        { entity = E.stimuli; label = "stim"; keywords = [ "bench" ];
          value =
            Codec.value_to_sexp
              (Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b"; "c" ])) } );
    ("req batch-8", Wire.Batch (List.init 8 (fun i -> Wire.Run i)));
  ]

let sample_responses =
  [
    ("resp int", Wire.Ok_int 7);
    ( "resp rows-20",
      Wire.Ok_rows
        (List.init 20 (fun i ->
             { Wire.row_iid = i; row_entity = E.stimuli; row_meta = meta })) );
    ( "resp frame-4k",
      Wire.Ok_frame
        { seq = 9; payload = payload 4096;
          digest = "0123456789abcdef0123456789abcdef" } );
    ( "resp metrics-16",
      Wire.Ok_metrics
        (List.init 16 (fun i ->
             Metrics.Counter (Printf.sprintf "engine.counter_%d" i, i * 17)))
    );
  ]

(* ------------------------------------------------------------------ *)
(* Codec microbenchmarks                                               *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The host reference's ns, and one row per sample frame: size and
   encode/decode ns.  Each time is the best of 15 passes of 1,000
   calls, every thunk's passes interleaved with the others'. *)
let codec_rows () =
  let frames =
    List.map
      (fun (name, r) ->
        ( name,
          (fun () -> Wire.request_to_binary_string r),
          fun b -> ignore (Wire.request_of_binary_string b) ))
      sample_requests
    @ List.map
        (fun (name, r) ->
          ( name,
            (fun () -> Wire.response_to_binary_string r),
            fun b -> ignore (Wire.response_of_binary_string b) ))
        sample_responses
  in
  let thunks =
    List.concat_map
      (fun (_, enc, dec) ->
        let bin = enc () in
        [ Bench_util.thunk enc; (fun () -> dec bin) ])
      frames
  in
  match Bench_util.best_ns_each (Bench_util.host_reference :: thunks) with
  | [] -> assert false
  | reference :: ns ->
    let ns = Array.of_list ns in
    ( reference,
      List.mapi
        (fun i (name, enc, _) ->
          let e = ns.(2 * i) and d = ns.((2 * i) + 1) in
          (e, d,
           [ name; string_of_int (String.length (enc ()));
             Printf.sprintf "%.0f" e; Printf.sprintf "%.0f" d ]))
        frames )

(* ------------------------------------------------------------------ *)
(* Framed transport throughput                                         *)
(* ------------------------------------------------------------------ *)

let stream_throughput ~frames ~bytes_per =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let resp =
    Wire.Ok_frame
      { seq = 1; payload = payload bytes_per;
        digest = "0123456789abcdef0123456789abcdef" }
  in
  let t0 = Unix.gettimeofday () in
  let sender =
    Thread.create
      (fun () ->
        for _ = 1 to frames do
          Wire.send_response a resp
        done;
        Unix.close a)
      ()
  in
  let received = ref 0 in
  let rx = Wire.receiver b in
  (try
     while
       match Wire.recv_response rx with
       | Some _ ->
         incr received;
         !received < frames
       | None -> false
     do
       ()
     done
   with Wire.Wire_error _ -> ());
  Thread.join sender;
  Unix.close b;
  let wall = Unix.gettimeofday () -. t0 in
  let mb = float_of_int (frames * bytes_per) /. 1e6 in
  (mb /. wall, !received)

(* ------------------------------------------------------------------ *)
(* Reads per frame and the round trip                                  *)
(* ------------------------------------------------------------------ *)

let m_recv_reads = Metrics.counter "wire.recv_reads"

let pong_rounds = 200

(* A socketpair ping-pong of small frames, with or without the
   deadline and trace header fields: each side sends only once it holds
   the other's frame, so every frame is waiting whole when it is read.
   The read(2)s per frame received, both sides counted, and the round
   trip's median us. *)
let ping_pong ~headers =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline_ms, trace =
    if headers then (Some 5_000, Some (Obs.new_root ())) else (None, None)
  in
  let echo =
    Thread.create
      (fun () ->
        let rx = Wire.receiver b in
        for _ = 1 to pong_rounds do
          match Wire.recv_request rx with
          | Some _ -> Wire.send_response ?deadline_ms ?trace b Wire.Ok_unit
          | None -> ()
        done)
      ()
  in
  let rx = Wire.receiver a in
  let reads0 = Metrics.count m_recv_reads in
  let rtts =
    List.init pong_rounds (fun i ->
        let t0 = Unix.gettimeofday () in
        Wire.send_request ?deadline_ms ?trace a (Wire.Run i);
        ignore (Wire.recv_response rx);
        (Unix.gettimeofday () -. t0) *. 1e6)
  in
  Thread.join echo;
  let reads = Metrics.count m_recv_reads - reads0 in
  Unix.close a;
  Unix.close b;
  ( float_of_int reads /. float_of_int (2 * pong_rounds),
    Bench_util.quantile rtts 0.5 )

(* [Client.ping] against a daemon: read(2)s per frame received (the
   daemon's connection thread and the client, both in this process)
   and the round trip's median us. *)
let daemon_pings c =
  let reads0 = Metrics.count m_recv_reads in
  let rtts =
    List.init pong_rounds (fun _ ->
        let t0 = Unix.gettimeofday () in
        Client.ping c;
        (Unix.gettimeofday () -. t0) *. 1e6)
  in
  ( float_of_int (Metrics.count m_recv_reads - reads0)
    /. float_of_int (2 * pong_rounds),
    Bench_util.quantile rtts 0.5 )

let pong_windows = 10

(* The three shapes window by window, interleaved, so a slow phase of
   the host touches each alike; each row is the median and IQR of its
   windows' medians. *)
let round_trips socket =
  Client.with_client ~user:"ping" ~socket @@ fun c ->
  let windows =
    List.init pong_windows (fun _ ->
        let plain = ping_pong ~headers:false in
        let headers = ping_pong ~headers:true in
        [ plain; headers; daemon_pings c ])
  in
  let row i name =
    let col f = List.map (fun w -> f (List.nth w i)) windows in
    let rtt = col snd in
    let reads = List.fold_left Float.max 0.0 (col fst) in
    ( reads,
      Bench_util.quantile rtt 0.5,
      [ name; Printf.sprintf "%.2f" reads;
        Printf.sprintf "%.1f" (Bench_util.quantile rtt 0.5);
        Printf.sprintf "%.1f"
          (Bench_util.quantile rtt 0.75 -. Bench_util.quantile rtt 0.25) ] )
  in
  let plain = row 0 "socketpair, plain frames"
  and headers = row 1 "socketpair, deadline + trace"
  and daemon = row 2 "daemon ping (not gated)" in
  Bench_util.print_table
    [ "round trip"; "reads/frame"; "median us"; "IQR us" ]
    (List.map (fun (_, _, r) -> r) [ plain; headers; daemon ]);
  let reads (r, _, _) = r and rtt (_, m, _) = m in
  Metrics.set
    (Metrics.gauge "wire.bench.reads_per_frame")
    (Float.max (reads plain) (reads headers));
  Metrics.set (Metrics.gauge "wire.bench.pair_rtt_us_median") (rtt plain);
  Metrics.set (Metrics.gauge "wire.bench.ping_rtt_us_median") (rtt daemon)

(* ------------------------------------------------------------------ *)
(* End-to-end: one server, one client                                  *)
(* ------------------------------------------------------------------ *)

let seed ctx = ignore (Workspace.of_session (Session.of_context ctx))

let e2e_rounds = 120

(* install + annotate + browse + stat per round, like experiment S. *)
let e2e_workload socket =
  Client.with_client ~user:"wire" ~socket
    (fun c ->
      let t0 = Unix.gettimeofday () in
      for j = 1 to e2e_rounds do
        let iid =
          Client.install c ~entity:E.stimuli
            ~label:(Printf.sprintf "w%d" j)
            (Codec.value_to_sexp
               (Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b" ])))
        in
        Client.annotate c ~keywords:[ "bench" ] iid;
        ignore
          (Client.browse c { filter with Store.f_entities = Some [ E.stimuli ] });
        ignore (Client.stat c)
      done;
      let wall = Unix.gettimeofday () -. t0 in
      float_of_int (4 * e2e_rounds) /. wall)

(* experiment P's shape: pipelined batches of 32 reads, one frame each
   way per batch. *)
let batch_rounds = 60

let batch_workload socket =
  Client.with_client ~user:"batch" ~socket (fun c ->
      let reqs = List.init 32 (fun _ -> Wire.Stat) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch_rounds do
        ignore (Client.batch c reqs)
      done;
      let wall = Unix.gettimeofday () -. t0 in
      float_of_int (32 * batch_rounds) /. wall)

let run () =
  (* --- codec micro --- *)
  Bench_util.section "codec: encode/decode ns per frame, bytes per frame";
  let reference, rows = codec_rows () in
  Bench_util.print_table [ "frame"; "bytes"; "enc ns"; "dec ns" ]
    (List.map (fun (_, _, row) -> row) rows);
  let enc = median (List.map (fun (e, _, _) -> e) rows) in
  let dec = median (List.map (fun (_, d, _) -> d) rows) in
  Printf.printf "  median: encode %.0f ns, decode %.0f ns\n" enc dec;
  (* a slow phase of a shared host can outlast a whole run, and slows
     the reference chunk as much as the codec: the scaled medians are
     what resolve a change between runs *)
  let scale = Bench_util.host_nominal_ns /. reference in
  Printf.printf
    "  host reference %.0f ns; scaled to the nominal host: encode %.0f ns, \
     decode %.0f ns\n"
    reference (enc *. scale) (dec *. scale);
  Metrics.set (Metrics.gauge "wire.bench.host_reference_ns") reference;
  Metrics.set (Metrics.gauge "wire.bench.encode_ns_median_scaled") (enc *. scale);
  Metrics.set (Metrics.gauge "wire.bench.decode_ns_median_scaled") (dec *. scale);
  Metrics.set (Metrics.gauge "wire.bench.encode_ns_median") enc;
  Metrics.set (Metrics.gauge "wire.bench.decode_ns_median") dec;

  (* --- transport throughput --- *)
  Bench_util.section "transport: 64 x 1 MiB payload frames over a socketpair";
  let mbps, got = stream_throughput ~frames:64 ~bytes_per:(1 lsl 20) in
  Printf.printf "  %8.0f MB/s  (%d frames)\n" mbps got;
  Metrics.set (Metrics.gauge "wire.bench.stream_mbps_binary") mbps;

  (* --- round trips and end to end, against one daemon --- *)
  let dir = fresh_dir () in
  rm_rf dir;
  let socket = Filename.concat dir "s.sock" in
  let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t;
      rm_rf dir)
    (fun () ->
      Bench_util.section
        (Printf.sprintf
           "round trips of small frames: %d interleaved windows of %d, \
            the most reads per frame received"
           pong_windows pong_rounds);
      round_trips socket;
      Bench_util.section
        (Printf.sprintf "end to end: %d install/annotate/browse/stat rounds"
           e2e_rounds);
      let rps = e2e_workload socket in
      let bat = batch_workload socket in
      Printf.printf "  singles: %8.0f req/s\n" rps;
      Printf.printf "  batches: %8.0f req/s\n" bat;
      Metrics.set (Metrics.gauge "wire.bench.rps_binary") rps;
      Metrics.set (Metrics.gauge "wire.bench.batch_rps_binary") bat)
