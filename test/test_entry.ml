(* The journal's binary entries: every kind round-trips its codec
   (hostile strings included) and classifies for the cement index as
   it decodes; hostile bytes raise only the typed error; a database
   holding s-expression entries is refused at open, by format; and a
   wire install's put entry holds the frame's value bytes as sent. *)

open Ddf

let with_dir = Test_journal.with_dir

(* Strings a text format would have to escape, and some it could not
   hold at all. *)
let hostile =
  QCheck2.Gen.(
    oneof
      [ oneofl
          [ ""; "\n"; "(put (iid 1))"; ")("; "\"quoted\" \\ back"; "\000";
            "nul\000inside"; "a b\tc\r\n" ];
        string_size ~gen:char (int_range 0 40);
        map (fun n -> String.make n 'x') (int_range 500 5000) ])

let meta =
  QCheck2.Gen.(
    map
      (fun ((user, label), (comment, keywords), created_at) ->
        Store.meta ~user ~label ~comment ~keywords ~created_at ())
      (triple (pair hostile hostile)
         (pair hostile (list_size (int_range 0 3) hostile))
         int))

let binding = QCheck2.Gen.(list_size (int_range 0 3) (pair hostile int))

let entry =
  QCheck2.Gen.(
    oneof
      [ map
          (fun ((iid, clock), (entity, hash), (meta, text)) ->
            Entry.Put { iid; clock; entity; hash; meta; text })
          (triple (pair int int) (pair hostile hostile) (pair meta hostile));
        map (fun (iid, meta) -> Entry.Note { iid; meta }) (pair int meta);
        map
          (fun ((clock, rid, task), (tool, inputs, outputs), at) ->
            Entry.Record
              { clock;
                record =
                  { Entry.rp_rid = rid; rp_task_entity = task; rp_tool = tool;
                    rp_inputs = inputs; rp_outputs = outputs; rp_at = at } })
          (triple (triple int int hostile)
             (triple (opt int) binding binding)
             int);
        map
          (fun ((clock, conflict, base), (ours, theirs), (origin, at)) ->
            Entry.Conflict { clock; conflict; base; ours; theirs; origin; at })
          (triple (triple int int int) (pair int int) (pair hostile int));
        map
          (fun (clock, conflict, winner) ->
            Entry.Resolve { clock; conflict; winner })
          (triple int int int) ])

(* What the cement index must read off an entry's head. *)
let expected_class = function
  | Entry.Put { iid; _ } when iid >= 0 && iid <= 999_999_999_999 -> ('p', iid)
  | Entry.Note { iid; _ } when iid >= 0 && iid <= 999_999_999_999 -> ('n', iid)
  | Entry.Put _ | Entry.Note _ -> ('?', 0)
  | Entry.Record _ -> ('r', 0)
  | Entry.Conflict _ -> ('c', 0)
  | Entry.Resolve _ -> ('v', 0)

let round_trip =
  Util.qcheck ~count:300 "every entry kind round-trips and classifies" entry
    (fun e ->
      let bytes = Entry.encode e in
      Entry.decode bytes = e && Entry.classify bytes = expected_class e)

(* One way to damage an encoded entry. *)
type damage =
  | Truncate of int
  | Flip of int * int
  | Trailing of string
  | Lying_length of int * int

let damage =
  QCheck2.Gen.(
    oneof
      [ map (fun k -> Truncate k) nat;
        map (fun (p, b) -> Flip (p, b)) (pair nat (int_range 0 7));
        map (fun s -> Trailing s) (string_size ~gen:char (int_range 1 12));
        map (fun (p, n) -> Lying_length (p, n)) (pair nat int) ])

let apply_damage bytes = function
  | Truncate k -> String.sub bytes 0 (k mod String.length bytes)
  | Flip (p, bit) ->
    let b = Bytes.of_string bytes in
    let p = p mod Bytes.length b in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
    Bytes.to_string b
  | Trailing s -> bytes ^ s
  | Lying_length (p, n) ->
    (* four bytes of a claimed length written over any offset *)
    let b = Bytes.of_string bytes in
    let p = p mod Bytes.length b in
    let b =
      if p + 4 <= Bytes.length b then b
      else Bytes.extend b 0 (p + 4 - Bytes.length b)
    in
    Bytes.set_int32_le b p (Int32.of_int n);
    Bytes.to_string b

let hostile_bytes =
  Util.qcheck ~count:500 "damaged entries raise only the typed error"
    QCheck2.Gen.(pair entry damage)
    (fun (e, d) ->
      let bytes = apply_damage (Entry.encode e) d in
      ignore (Entry.classify bytes : char * int);
      match Entry.decode bytes with
      | _ -> (
        (* a flipped or overwritten byte inside a string can still
           decode; a short or overlong entry never can *)
        match d with
        | Truncate _ | Trailing _ -> false
        | Flip _ | Lying_length _ -> true)
      | exception Error.Ddf_error _ -> true
      | exception _ -> false)

(* The refusal names the format, and it is the typed error. *)
let expect_format_refusal f =
  match f () with
  | _ -> Alcotest.fail "expected the s-expression database to be refused"
  | exception Error.Ddf_error e ->
    Alcotest.(check bool) "typed `Invalid" true (e.Error.code = `Invalid);
    Alcotest.(check bool) "names format 1" true
      (Util.contains e.Error.message "format 1"
      && Util.contains e.Error.message "s-expression")

let old_put =
  "(put (iid 1) (clock 1) (entity netlist) (hash h) (meta (u 1 l c ())) \
   (value v))"

let refusals =
  [ Alcotest.test_case "a wal of s-expression entries is refused at open" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let oc = open_out_bin (Filename.concat dir "wal.ddf") in
        Cement.output_frame oc old_put;
        close_out oc;
        expect_format_refusal (fun () ->
            Journal.open_ ~dir Standard_schemas.odyssey));
    Alcotest.test_case "cemented s-expression entries are refused at open"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let c = Cement.open_ ~dir:(Filename.concat dir "cemented") in
        Util.seal_frames ~first:1 c [ old_put ];
        Cement.close c;
        expect_format_refusal (fun () ->
            Journal.open_ ~dir Standard_schemas.odyssey)) ]

(* A raw install frame whose value is pretty-printed text, which no
   client codec writes: if the server printed the value again, the
   entry would hold flat text instead. *)
let install_frame ~entity value text =
  let flat = Sexp.to_string ~pretty:false value in
  let body =
    Wire.request_to_binary_string
      (Wire.Install { entity; label = "typed"; keywords = []; value })
  in
  let head = String.sub body 0 (String.length body - 4 - String.length flat) in
  let body =
    let b = Buffer.create 64 in
    Buffer.add_string b head;
    Buffer.add_int32_le b (Int32.of_int (String.length text));
    Buffer.add_string b text;
    Buffer.contents b
  in
  let b = Buffer.create 64 in
  Buffer.add_char b '\xd8';
  Buffer.add_char b '\x00';
  Buffer.add_int32_le b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

let as_received =
  Alcotest.test_case "a wire install journals the frame's value bytes" `Quick
    (fun () ->
      Test_server.with_server @@ fun _ ~dir:_ ~socket ->
      let value =
        Codec.value_to_sexp
          (Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b"; "c" ]))
      in
      let text = Sexp.to_string ~pretty:true value ^ " ; typed by hand\n" in
      Alcotest.(check bool) "the text is not the flat print" true
        (text <> Sexp.to_string ~pretty:false value);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let rx = Wire.receiver fd in
      let call req =
        Wire.send_request fd req;
        match Wire.recv_response rx with
        | Some (resp, _) -> resp
        | None -> Alcotest.fail "the server hung up"
      in
      ignore (call (Wire.hello "typist"));
      let frame = install_frame ~entity:Standard_schemas.E.stimuli value text in
      ignore (Unix.write_substring fd frame 0 (String.length frame));
      let iid =
        match Wire.recv_response rx with
        | Some (Wire.Ok_int iid, _) -> iid
        | _ -> Alcotest.fail "the install was refused"
      in
      let frames =
        match call (Wire.Sync_frames { after = 0; limit = 10_000 }) with
        | Wire.Ok_frames frames -> frames
        | _ -> Alcotest.fail "no frames"
      in
      let texts =
        List.filter_map
          (fun (_, _, payload) ->
            match Entry.decode payload with
            | Entry.Put { iid = i; text; _ } when i = iid -> Some text
            | _ -> None)
          frames
      in
      Alcotest.(check (list string)) "the put holds the bytes as sent" [ text ]
        texts)

let suite =
  [ ("journal.entries", [ round_trip; hostile_bytes; as_received ] @ refusals) ]
