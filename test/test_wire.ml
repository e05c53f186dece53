(* The wire protocol: the length-prefixed binary codec.  qcheck
   round-trips over generated requests and responses, a byte-mutation
   fuzzer over valid frames (a mutated frame decodes to a well-formed
   message or raises Wire_error, nothing else), the batch nesting
   bound, header-token round-trips over real sockets, gathered batch
   writes, large-payload framing, the typed refusal of a legacy
   s-expression frame and of a nested-batch bomb by a live server,
   the `remote batch` text language, and redials after torn sends. *)

open Ddf
module E = Standard_schemas.E

let with_faults f = Fun.protect ~finally:Fault.reset f

(* ------------------------------------------------------------------ *)
(* Generators: every constructor of both wire types                    *)
(* ------------------------------------------------------------------ *)

let gen_text = QCheck2.Gen.(string_size ~gen:printable (int_range 0 24))

(* 64-bit extremes included: binary ints travel as 8-byte words. *)
let gen_int =
  QCheck2.Gen.(
    frequency
      [ (4, small_signed_int); (1, oneofl [ 0; 1; -1; max_int; min_int ]) ])

let gen_nat = QCheck2.Gen.(int_bound 1_000_000)

(* Finite floats only: the codec is bit-exact, but NaN breaks the
   structural-equality oracle. *)
let gen_float =
  QCheck2.Gen.(
    map
      (fun (a, b) -> float_of_int a /. float_of_int (b + 1))
      (pair (int_range (-1_000_000) 1_000_000) (int_bound 1000)))

let gen_sexp =
  QCheck2.Gen.(
    sized @@ fix
    @@ fun self n ->
    if n <= 0 then map (fun s -> Sexp.Atom s) gen_text
    else
      frequency
        [ (2, map (fun s -> Sexp.Atom s) gen_text);
          (1, map (fun l -> Sexp.List l) (list_size (int_bound 4) (self (n / 2))))
        ])

let gen_filter =
  QCheck2.Gen.(
    map
      (fun ((ents, user), (from_, to_), (kws, text)) ->
        { Store.f_entities = ents; f_user = user; f_from = from_; f_to = to_;
          f_keywords = kws; f_text = text })
      (triple
         (pair (option (small_list gen_text)) (option gen_text))
         (pair (option gen_nat) (option gen_nat))
         (pair (small_list gen_text) (option gen_text))))

let gen_meta =
  QCheck2.Gen.(
    map
      (fun ((user, created_at), (label, comment), kws) ->
        { Store.user; created_at; label; comment; keywords = kws })
      (triple (pair gen_text gen_nat) (pair gen_text gen_text)
         (small_list gen_text)))

let gen_error =
  QCheck2.Gen.(
    map
      (fun (code, (msg, (ctx, (retryable, after)))) ->
        Error.make ~context:ctx ~retryable
          ?retry_after:(Option.map (fun n -> float_of_int n /. 1024.0) after)
          code msg)
      (pair (oneofl Error.all_codes)
         (pair gen_text
            (pair
               (small_list (pair gen_text gen_text))
               (pair bool (option (int_range 0 100_000)))))))

let gen_sync_frames = QCheck2.Gen.(small_list (triple gen_nat gen_text gen_text))

(* Every non-batch request constructor, uniformly. *)
let gen_simple_request =
  QCheck2.Gen.(
    oneof
      [ map (fun (user, version) -> Wire.Hello { user; version })
          (pair gen_text (int_range 1 20));
        return Wire.Ping;
        return Wire.Stat;
        map (fun c -> Wire.Catalog c)
          (oneofl [ Wire.Entities; Wire.Tools; Wire.Flows ]);
        map (fun f -> Wire.Browse f) gen_filter;
        map
          (fun ((entity, label), (kws, value)) ->
            Wire.Install { entity; label; keywords = kws; value })
          (pair (pair gen_text gen_text) (pair (small_list gen_text) gen_sexp));
        map
          (fun ((iid, label), (comment, kws)) ->
            Wire.Annotate { iid; label; comment; keywords = kws })
          (pair
             (pair gen_nat (option gen_text))
             (pair (option gen_text) (option (small_list gen_text))));
        map (fun s -> Wire.Start_goal s) gen_text;
        map (fun i -> Wire.Start_data i) gen_nat;
        map (fun n -> Wire.Expand n) gen_nat;
        map (fun (n, e) -> Wire.Specialize (n, e)) (pair gen_nat gen_text);
        map (fun (n, iids) -> Wire.Select (n, iids))
          (pair gen_nat (small_list gen_nat));
        map (fun (n, f) -> Wire.Node_browse (n, f)) (pair gen_nat gen_filter);
        return Wire.Leaves;
        map (fun n -> Wire.Run n) gen_nat;
        return Wire.Render;
        map (fun i -> Wire.Recall i) gen_nat;
        map (fun i -> Wire.Trace i) gen_nat;
        map (fun i -> Wire.Uses i) gen_nat;
        map (fun i -> Wire.Refresh i) gen_nat;
        map (fun s -> Wire.Save_flow s) gen_text;
        map (fun s -> Wire.Load_flow s) gen_text;
        return Wire.Shutdown;
        map (fun n -> Wire.Subscribe n) gen_nat;
        map (fun n -> Wire.Repl_ack n) gen_nat;
        return Wire.Lag;
        return Wire.Compact;
        return Wire.Metrics;
        return Wire.Sync_digest;
        map (fun (after, limit) -> Wire.Sync_frames { after; limit })
          (pair gen_nat gen_nat);
        map
          (fun ((origin, upto), frames) ->
            Wire.Sync_ack { origin; upto; frames })
          (pair (pair gen_text gen_nat) gen_sync_frames);
        return Wire.Conflicts;
        map (fun (conflict, winner) -> Wire.Resolve { conflict; winner })
          (pair gen_nat gen_nat);
        return Wire.Snapshot_export
      ])

let gen_request =
  QCheck2.Gen.(
    frequency
      [ (9, gen_simple_request);
        (1, map (fun rs -> Wire.Batch rs) (small_list gen_simple_request))
      ])

let gen_histo =
  QCheck2.Gen.(
    map
      (fun ((n, sum), (mn, mx), (p50, (p90, p99))) ->
        { Metrics.hs_n = n; hs_sum = sum; hs_min = mn; hs_max = mx;
          hs_p50 = p50; hs_p90 = p90; hs_p99 = p99 })
      (triple (pair gen_nat gen_float) (pair gen_float gen_float)
         (pair gen_float (pair gen_float gen_float))))

let gen_metric =
  QCheck2.Gen.(
    oneof
      [ map (fun (n, v) -> Metrics.Counter (n, v)) (pair gen_text gen_nat);
        map (fun (n, v) -> Metrics.Gauge (n, v)) (pair gen_text gen_float);
        map (fun (n, h) -> Metrics.Histogram (n, h)) (pair gen_text gen_histo)
      ])

let gen_simple_response =
  QCheck2.Gen.(
    oneof
      [ return Wire.Ok_unit;
        map (fun i -> Wire.Ok_int i) gen_int;
        map (fun is -> Wire.Ok_ints is) (small_list gen_int);
        map (fun ss -> Wire.Ok_atoms ss) (small_list gen_text);
        map (fun s -> Wire.Ok_text s) gen_text;
        map (fun ns -> Wire.Ok_nodes ns) (small_list (pair gen_nat gen_text));
        map (fun rows -> Wire.Ok_rows rows)
          (small_list
             (map
                (fun ((iid, entity), meta) ->
                  { Wire.row_iid = iid; row_entity = entity; row_meta = meta })
                (pair (pair gen_nat gen_text) gen_meta)));
        map
          (fun ((role, (seq, clock)), (insts, recs), (st, (ht, up))) ->
            Wire.Ok_stat
              { Wire.st_role = role; st_seq = seq; st_clock = clock;
                st_instances = insts; st_records = recs; st_store_tick = st;
                st_history_tick = ht; st_uptime_s = up })
          (triple (pair gen_text (pair gen_nat gen_nat)) (pair gen_nat gen_nat)
             (pair gen_nat (pair gen_nat gen_float)));
        map (fun ((fresh, reran), reused) ->
            Wire.Ok_refresh { fresh; reran; reused })
          (pair (pair gen_nat gen_nat) gen_nat);
        map (fun (seq, bytes) -> Wire.Ok_snapshot_begin { seq; bytes })
          (pair gen_nat gen_nat);
        map (fun data -> Wire.Ok_snapshot_chunk { data }) gen_text;
        map (fun digest -> Wire.Ok_snapshot_end { digest }) gen_text;
        map
          (fun ((seq, payload), digest) ->
            Wire.Ok_frame { seq; payload; digest })
          (pair (pair gen_nat gen_text) gen_text);
        map
          (fun (primary_seq, rows) -> Wire.Ok_lags { primary_seq; rows })
          (pair gen_nat
             (small_list
                (map
                   (fun ((f, a), s) ->
                     { Wire.lag_follower = f; lag_acked = a; lag_sent = s })
                   (pair (pair gen_text gen_nat) gen_nat))));
        map (fun ms -> Wire.Ok_metrics ms) (small_list gen_metric);
        map
          (fun ((wsid, (base, seq)), fingerprint, (cursors, entries)) ->
            Wire.Ok_digest { wsid; base; seq; fingerprint; cursors; entries })
          (triple (pair gen_text (pair gen_nat gen_nat)) gen_text
             (pair (small_list (pair gen_text gen_nat))
                (small_list (pair gen_nat gen_text))));
        map (fun fs -> Wire.Ok_frames fs) gen_sync_frames;
        map
          (fun ((ap, sk), (cf, cur)) ->
            Wire.Ok_sync
              { Wire.sy_applied = ap; sy_skipped = sk; sy_conflicts = cf;
                sy_cursor = cur })
          (pair (pair gen_nat gen_nat) (pair gen_nat gen_nat));
        map (fun rows -> Wire.Ok_conflicts rows)
          (small_list
             (map
                (fun ((id, base), (ours, theirs), (origin, (at, winner))) ->
                  { Wire.cf_id = id; cf_base = base; cf_ours = ours;
                    cf_theirs = theirs; cf_origin = origin; cf_at = at;
                    cf_winner = winner })
                (triple (pair gen_nat gen_nat) (pair gen_nat gen_nat)
                   (pair gen_text (pair gen_nat (option gen_nat))))));
        map (fun e -> Wire.Error e) gen_error
      ])

let gen_response =
  QCheck2.Gen.(
    frequency
      [ (9, gen_simple_response);
        (1, map (fun rs -> Wire.Ok_batch rs) (small_list gen_simple_response))
      ])

(* ------------------------------------------------------------------ *)
(* Round trips and hostile bodies                                      *)
(* ------------------------------------------------------------------ *)

(* [depth] Batch headers (tag 35, u32 count 1) around a Ping. *)
let nested_batch_body depth =
  let b = Buffer.create ((5 * depth) + 1) in
  for _ = 1 to depth do
    Buffer.add_char b '\035';
    Buffer.add_int32_le b 1l
  done;
  Buffer.add_char b '\002';
  Buffer.contents b

let codec_props =
  [
    Util.qcheck ~count:300 "requests round-trip the binary codec" gen_request
      (fun r ->
        Wire.request_of_binary_string (Wire.request_to_binary_string r) = r);
    Util.qcheck ~count:300 "responses round-trip the binary codec" gen_response
      (fun r ->
        Wire.response_of_binary_string (Wire.response_to_binary_string r) = r);
    Alcotest.test_case "binary decode rejects trailing bytes" `Quick (fun () ->
        let s = Wire.request_to_binary_string Wire.Ping ^ "\x00" in
        match Wire.request_of_binary_string s with
        | _ -> Alcotest.fail "expected a Wire_error"
        | exception Wire.Wire_error m ->
          Alcotest.(check bool) "names the trailing bytes" true
            (Util.contains m "trailing"));
    Alcotest.test_case "binary decode rejects unknown tags" `Quick (fun () ->
        match Wire.request_of_binary_string "\xff" with
        | _ -> Alcotest.fail "expected a Wire_error"
        | exception Wire.Wire_error _ -> ());
    Alcotest.test_case "binary decode rejects truncated bodies" `Quick
      (fun () ->
        let whole = Wire.request_to_binary_string (Wire.Start_goal "perf") in
        let torn = String.sub whole 0 (String.length whole - 2) in
        match Wire.request_of_binary_string torn with
        | _ -> Alcotest.fail "expected a Wire_error"
        | exception Wire.Wire_error _ -> ());
    Alcotest.test_case "batches nest one level deep, no deeper" `Quick
      (fun () ->
        (* one level is a request the server answers positionally *)
        Alcotest.(check bool) "a batch in a batch decodes" true
          (Wire.request_of_binary_string (nested_batch_body 2)
          = Wire.Batch [ Wire.Batch [ Wire.Ping ] ]);
        Alcotest.(check bool) "an ok-batch in an ok-batch decodes" true
          (let r = Wire.Ok_batch [ Wire.Ok_batch [ Wire.Ok_unit ] ] in
           Wire.response_of_binary_string (Wire.response_to_binary_string r)
           = r);
        (* deeper is a typed error, however deep: a million levels
           would otherwise recurse a million frames down *)
        List.iter
          (fun depth ->
            (match Wire.request_of_binary_string (nested_batch_body depth) with
            | _ -> Alcotest.failf "request depth %d decoded" depth
            | exception Wire.Wire_error m ->
              Alcotest.(check bool) "names the nesting" true
                (Util.contains m "nested"));
            let resp =
              String.map
                (function '\035' -> '\021' | '\002' -> '\001' | c -> c)
                (nested_batch_body depth)
            in
            match Wire.response_of_binary_string resp with
            | _ -> Alcotest.failf "response depth %d decoded" depth
            | exception Wire.Wire_error _ -> ())
          [ 3; 1_000_000 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Framing over real sockets                                           *)
(* ------------------------------------------------------------------ *)

let with_sockpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ()))
    (fun () -> f a b)

(* Send from a thread: socketpair buffers are finite, so big frames
   need a concurrent reader. *)
let send_threaded f =
  let t = Thread.create f () in
  Fun.protect ~finally:(fun () -> Thread.join t)

let header_roundtrip () =
  with_sockpair @@ fun a b ->
  let span = Obs.new_root () in
  Wire.send_request ~deadline_ms:1234 ~trace:span a (Wire.Run 7);
  match Wire.recv_request b with
  | None -> Alcotest.fail "expected a frame"
  | Some (req, meta) ->
    Alcotest.(check bool) "request" true (req = Wire.Run 7);
    Alcotest.(check (option int)) "deadline" (Some 1234) meta.Wire.fm_deadline_ms;
    (match meta.Wire.fm_trace with
    | None -> Alcotest.fail "expected a trace token"
    | Some ctx ->
      Alcotest.(check string) "trace id" span.Obs.trace_id ctx.Obs.trace_id;
      Alcotest.(check int) "span id" span.Obs.span_id ctx.Obs.span_id)

let framing =
  [
    Alcotest.test_case "header tokens round-trip (binary)" `Quick
      header_roundtrip;
    Alcotest.test_case "large payload bodies survive binary framing" `Quick
      (fun () ->
        with_sockpair @@ fun a b ->
        (* well past [zero_copy_min]: the body rides as its own iovec
           slice through the gathered write *)
        let data = String.init 3_000_000 (fun i -> Char.chr (i land 0xff)) in
        send_threaded
          (fun () ->
            Wire.send_response a
              (Wire.Ok_frame { seq = 42; payload = data; digest = "d" }))
          (fun () ->
            match Wire.recv_response b with
            | Some (Wire.Ok_frame { seq; payload; digest }, _) ->
              Alcotest.(check int) "seq" 42 seq;
              Alcotest.(check string) "digest" "d" digest;
              Alcotest.(check bool) "payload intact" true (payload = data)
            | _ -> Alcotest.fail "expected a binary frame"));
    Alcotest.test_case "a batch flush delivers every frame in order" `Quick
      (fun () ->
        with_sockpair @@ fun a b ->
        let items =
          List.init 64 (fun i ->
              ( Wire.Ok_frame
                  { seq = i; payload = String.make (200 * i) 'x'; digest = "" },
                if i mod 2 = 0 then Some (Obs.new_root ()) else None ))
        in
        send_threaded
          (fun () -> Wire.send_response_batch a items)
          (fun () ->
            List.iteri
              (fun i (want, trace) ->
                match Wire.recv_response b with
                | Some (got, meta) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "frame %d" i)
                    true (got = want);
                  Alcotest.(check bool)
                    (Printf.sprintf "trace %d" i)
                    true
                    (Option.is_some meta.Wire.fm_trace = Option.is_some trace)
                | _ -> Alcotest.fail "expected a binary frame")
              items));
  ]

(* ------------------------------------------------------------------ *)
(* The decoder fuzzer                                                  *)
(* ------------------------------------------------------------------ *)

(* One byte-level mutation of a whole frame (header included). *)
type mutation =
  | Flip of int * int             (* position, xor mask (1..255) *)
  | Truncate of int               (* keep this many bytes *)
  | Insert of int * string        (* position, bytes *)
  | Overwrite_u32 of int * int    (* position, a length-field value *)

let mutate frame m =
  let n = String.length frame in
  let at p = if n = 0 then 0 else p mod (n + 1) in
  match m with
  | Flip (p, mask) when n > 0 ->
    let b = Bytes.of_string frame in
    let p = p mod n in
    Bytes.set b p (Char.chr (Char.code frame.[p] lxor mask));
    Bytes.to_string b
  | Flip _ -> frame
  | Truncate k -> String.sub frame 0 (at k)
  | Insert (p, ins) ->
    let p = at p in
    String.sub frame 0 p ^ ins ^ String.sub frame p (n - p)
  | Overwrite_u32 (p, v) ->
    let b = Buffer.create (n + 4) in
    let p = at p in
    Buffer.add_string b (String.sub frame 0 p);
    Buffer.add_int32_le b (Int32.of_int v);
    let rest = p + 4 in
    if rest < n then Buffer.add_string b (String.sub frame rest (n - rest));
    Buffer.contents b

(* The frame-body bound the receiver enforces (64 MiB). *)
let max_frame = 64 * 1024 * 1024

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [ map2 (fun p m -> Flip (p, m)) nat (int_range 1 255);
        map (fun k -> Truncate k) nat;
        map2 (fun p s -> Insert (p, s)) nat
          (string_size ~gen:char (int_range 1 8));
        map2 (fun p v -> Overwrite_u32 (p, v)) nat
          (frequency
             [ (3, int_bound 64);
               (1, oneofl [ 0; 0x7FFFFFFF; 0xFFFFFFFF; max_frame + 1 ]);
               (1, int_bound 0xFFFFFF) ])
      ])

let print_mutation = function
  | Flip (p, m) -> Printf.sprintf "flip %d ^ 0x%02x" p m
  | Truncate k -> Printf.sprintf "truncate to %d" k
  | Insert (p, s) -> Printf.sprintf "insert %S at %d" s p
  | Overwrite_u32 (p, v) -> Printf.sprintf "u32 %d at %d" v p

(* A real frame, as the sender writes it. *)
let framed send v =
  with_sockpair @@ fun a b ->
  send a v;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  In_channel.input_all (Unix.in_channel_of_descr b)

(* Feed mutated bytes through the socket reader: a typed error, a clean
   end of stream on an empty input, or a message whose re-encoding
   decodes back to itself are the only acceptable outcomes. *)
let survives ~send ~recv ~to_string ~of_string (v, muts) =
  let bytes = List.fold_left mutate (framed send v) muts in
  with_sockpair @@ fun a b ->
  ignore (Unix.write_substring a bytes 0 (String.length bytes));
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  match recv b with
  | exception Wire.Wire_error _ -> true
  | None -> bytes = ""
  | Some (msg, _) -> compare (of_string (to_string msg)) msg = 0

let fuzz_props =
  let muts = QCheck2.Gen.(list_size (int_range 1 4) gen_mutation) in
  let print_muts ms = String.concat "; " (List.map print_mutation ms) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"mutated request frames decode or fail typed"
         ~print:(fun (_, ms) -> print_muts ms)
         (QCheck2.Gen.pair gen_request muts)
         (survives
            ~send:(fun fd r -> Wire.send_request fd r)
            ~recv:Wire.recv_request ~to_string:Wire.request_to_binary_string
            ~of_string:Wire.request_of_binary_string));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"mutated response frames decode or fail typed"
         ~print:(fun (_, ms) -> print_muts ms)
         (QCheck2.Gen.pair gen_response muts)
         (survives
            ~send:(fun fd r -> Wire.send_response fd r)
            ~recv:Wire.recv_response ~to_string:Wire.response_to_binary_string
            ~of_string:Wire.response_of_binary_string));
  ]

(* ------------------------------------------------------------------ *)
(* Hostile peers against a live server                                 *)
(* ------------------------------------------------------------------ *)

let stim_sexp =
  Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))

let only entity =
  { Test_server.no_filter with Store.f_entities = Some [ entity ] }

(* A raw connection: write [bytes] and half-close, then read what the
   server answers until it closes the connection. *)
let raw_exchange ~socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let len = String.length bytes in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd bytes off (len - off))
  in
  go 0;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let rec answers acc =
    match Wire.recv_response fd with
    | Some (r, _) -> answers (r :: acc)
    | None -> List.rev acc
  in
  answers []

let frame_of_body body =
  let b = Buffer.create (String.length body + 6) in
  Buffer.add_char b '\xd8';
  Buffer.add_char b '\000';
  Buffer.add_int32_le b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

let expect_invalid what ~mentions = function
  | [ Wire.Error e ] ->
    Alcotest.(check bool) (what ^ ": typed invalid") true
      (e.Error.code = `Invalid && not e.Error.retryable);
    Alcotest.(check bool)
      (Printf.sprintf "%s: names %S" what mentions)
      true
      (Util.contains (Error.message e) mentions)
  | _ -> Alcotest.failf "%s: expected exactly one error, then a close" what

(* Write [bytes] on a fresh connection without half-closing, read the
   one answer frame, then read on: the server must end the stream
   (0 bytes), not reset it, though it never read all of [bytes]. *)
let refusal_then_eof ~socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  let answer =
    match Wire.recv_response fd with
    | Some (r, _) -> [ r ]
    | None -> Alcotest.fail "no answer frame"
  in
  (match Unix.read fd (Bytes.create 64) 0 64 with
  | 0 -> ()
  | n -> Alcotest.failf "%d more bytes after the refusal" n
  | exception Unix.Unix_error (e, _, _) ->
    Alcotest.failf "read after the refusal: %s" (Unix.error_message e));
  answer

(* An install whose value is [depth] nested lists, framed by hand: the
   value body is opaque bytes on the wire. *)
let deep_install_frame depth =
  let b = Buffer.create ((2 * depth) + 64) in
  let str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  Buffer.add_char b '\006';
  str E.stimuli;
  str "deep";
  Buffer.add_int32_le b 0l;
  str (String.make depth '(' ^ String.make depth ')');
  frame_of_body (Buffer.contents b)

let hostile =
  [
    Alcotest.test_case "a ddf1 frame gets the typed refusal" `Quick (fun () ->
        Test_server.with_server @@ fun _t ~dir:_ ~socket ->
        (* what a v8 client sent first: its hello, framed as an
           s-expression *)
        let hello = "(hello old (version 8))" in
        raw_exchange ~socket
          (Printf.sprintf "ddf1 %d\n%s\n" (String.length hello) hello)
        |> expect_invalid "ddf1 hello"
             ~mentions:(Printf.sprintf "v%d" Wire.protocol_version);
        (* the server is unharmed *)
        Client.with_client ~socket Client.ping);
    Alcotest.test_case "a refused frame ends in end-of-stream, not a reset"
      `Quick (fun () ->
        Test_server.with_server @@ fun _t ~dir:_ ~socket ->
        let hello = "(hello old (version 8))" in
        refusal_then_eof ~socket
          (Printf.sprintf "ddf1 %d\n%s\n" (String.length hello) hello)
        |> expect_invalid "ddf1 hello"
             ~mentions:(Printf.sprintf "v%d" Wire.protocol_version));
    Alcotest.test_case "a 100k-deep install value gets a typed error"
      `Quick (fun () ->
        Test_server.with_server ~max_clients:1 @@ fun _t ~dir:_ ~socket ->
        refusal_then_eof ~socket (deep_install_frame 100_000)
        |> expect_invalid "deep value" ~mentions:"nested deeper";
        Client.with_client ~socket @@ fun c ->
        ignore (Client.install c ~entity:E.stimuli ~label:"after" stim_sexp);
        Alcotest.(check int) "the server keeps serving" 1
          (List.length (Client.browse c (only E.stimuli))));
    Alcotest.test_case "a nested-batch bomb is refused and frees its slot"
      `Quick (fun () ->
        (* one client slot: a leaked connection would lock out the next *)
        Test_server.with_server ~max_clients:1 @@ fun _t ~dir:_ ~socket ->
        raw_exchange ~socket (frame_of_body (nested_batch_body 1_000_000))
        |> expect_invalid "nested batches" ~mentions:"nested";
        Client.with_client ~socket @@ fun c ->
        ignore (Client.install c ~entity:E.stimuli ~label:"after" stim_sexp);
        Alcotest.(check int) "a fresh client is served" 1
          (List.length (Client.browse c (only E.stimuli))));
  ]

(* ------------------------------------------------------------------ *)
(* The `remote batch` text language                                    *)
(* ------------------------------------------------------------------ *)

(* One stdin line per request verb the language reads, parsed exactly
   as `hercules remote batch` parses it. *)
let batch_lines =
  let filter = { Test_server.no_filter with Store.f_user = Some "ann" } in
  [
    ("(hello ann (version 9))", Wire.Hello { user = "ann"; version = 9 });
    ("ping", Wire.Ping);
    ("stat", Wire.Stat);
    ("(catalog tools)", Wire.Catalog Wire.Tools);
    ("(browse (filter (user ann)))", Wire.Browse filter);
    ( "(install stimuli s (k1) (x))",
      Wire.Install
        { entity = "stimuli"; label = "s"; keywords = [ "k1" ];
          value = Sexp.List [ Sexp.Atom "x" ] } );
    ( "(annotate 4 (comment hi))",
      Wire.Annotate
        { iid = 4; label = None; comment = Some "hi"; keywords = None } );
    ("(start-goal performance)", Wire.Start_goal "performance");
    ("(start-data 3)", Wire.Start_data 3);
    ("(expand 1)", Wire.Expand 1);
    ("(specialize 2 sim)", Wire.Specialize (2, "sim"));
    ("(select 2 (5 6))", Wire.Select (2, [ 5; 6 ]));
    ("(node-browse 2 (filter (user ann)))", Wire.Node_browse (2, filter));
    ("leaves", Wire.Leaves);
    ("(run 1)", Wire.Run 1);
    ("render", Wire.Render);
    ("(recall 7)", Wire.Recall 7);
    ("(trace 7)", Wire.Trace 7);
    ("(uses 7)", Wire.Uses 7);
    ("(refresh 7)", Wire.Refresh 7);
    ("(save-flow f)", Wire.Save_flow "f");
    ("(load-flow f)", Wire.Load_flow "f");
    ("shutdown", Wire.Shutdown);
    ("(subscribe 0)", Wire.Subscribe 0);
    ("(repl-ack 5)", Wire.Repl_ack 5);
    ("lag", Wire.Lag);
    ("compact", Wire.Compact);
    ("metrics", Wire.Metrics);
    ("sync-digest", Wire.Sync_digest);
    ("(sync-frames 0 64)", Wire.Sync_frames { after = 0; limit = 64 });
    ( "(sync-ack w1 9 (9 ab \"(put)\"))",
      Wire.Sync_ack { origin = "w1"; upto = 9; frames = [ (9, "ab", "(put)") ] }
    );
    ("conflicts", Wire.Conflicts);
    ("(resolve 1 7)", Wire.Resolve { conflict = 1; winner = 7 });
    ("snapshot-export", Wire.Snapshot_export);
    ("(batch ping (run 1))", Wire.Batch [ Wire.Ping; Wire.Run 1 ]);
  ]

let text_language =
  [
    Alcotest.test_case "remote batch parses one line per request verb" `Quick
      (fun () ->
        List.iter
          (fun (line, want) ->
            Alcotest.(check string) line (Wire.request_name want)
              (Wire.request_name (Wire.request_of_sexp (Sexp.of_string line)));
            Alcotest.(check bool) line true
              (Wire.request_of_sexp (Sexp.of_string line) = want))
          batch_lines;
        (* every verb of the protocol has a line *)
        Alcotest.(check int) "verbs covered" 35
          (List.length
             (List.sort_uniq compare
                (List.map (fun (_, r) -> Wire.request_name r) batch_lines)));
        match Wire.request_of_sexp (Sexp.of_string "(frobnicate 1)") with
        | _ -> Alcotest.fail "expected an unknown-request error"
        | exception Wire.Wire_error m ->
          Alcotest.(check bool) "names the verb" true
            (Util.contains m "frobnicate"));
  ]

(* ------------------------------------------------------------------ *)
(* Torn sends and redials                                              *)
(* ------------------------------------------------------------------ *)

let faults =
  [
    Alcotest.test_case "a redial after a torn binary frame renegotiates" `Quick
      (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Server.wait t)
          (fun () ->
            Client.with_client ~retries:2 ~socket @@ fun c ->
            Client.ping c (* complete the hello before arming the fault *);
            (* the next frame dies 7 bytes in.  The client must drop,
               redial, redo the hello and retry — transparently *)
            Fault.arm ~times:1 "wire.send" (Fault.Torn 7);
            let stat = Client.stat c in
            Alcotest.(check string) "retried to an answer" "primary"
              stat.Wire.st_role;
            Alcotest.(check int) "the fault fired" 1 (Fault.fired "wire.send");
            (* the redialed connection keeps working *)
            ignore
              (Client.install c ~entity:E.stimuli ~label:"post-tear" stim_sexp);
            Alcotest.(check int) "applied exactly once" 1
              (List.length (Client.browse c (only E.stimuli)))));
    Alcotest.test_case "a torn hello fails the dial, not the codec state"
      `Quick (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Server.wait t)
          (fun () ->
            (* the hello itself tears: no connection was ever
               established, so the injection surfaces raw from the
               eager dial *)
            Fault.arm ~times:1 "wire.send" (Fault.Torn 5);
            (match Client.connect ~socket () with
            | c ->
              Client.close c;
              Alcotest.fail "expected the torn hello to surface"
            | exception Fault.Injected _ -> ());
            Alcotest.(check int) "the fault fired" 1 (Fault.fired "wire.send");
            (* a fresh dial starts over with a fresh hello *)
            Client.with_client ~socket @@ fun c ->
            Alcotest.(check string) "fresh hello is accepted" "primary"
              (Client.stat c).Wire.st_role));
  ]

let suite =
  [
    ("wire-v8 codec", codec_props);
    ("wire-v8 framing", framing);
    ("wire.fuzz", fuzz_props);
    ("wire.hostile", hostile);
    ("wire.batch-text", text_language);
    ("wire-v8 faults", faults);
  ]
