(* Workspace persistence: the framework is a database in the paper, so
   a session -- store instances with their meta-data, history records,
   the flow catalog, the logical clock -- saves to one binary
   checkpoint and loads back bit-for-bit.

   The checkpoint is described once, beside the journal's entries
   (Entry), as a Layout stream: every int, length and count is an
   LEB128 varint.  Checkpoint format 4:

     DDFC 4 user clock      magic, format, header: the seq it
       seq from               covers, where its line's log starts
     instances              count, then per instance in iid order:
                              iid entity meta hash slot
     records                count, then Entry.record_parts in rid order
     conflicts              count, then id base ours theirs origin at
                              winner?
     flows                  count, then name and Sexp_form text

   A slot is [cemented SEQ], a reference to the cemented put frame SEQ
   that installed the instance (a journal checkpoint), or [value TEXT],
   the value as flat s-expression text, as a put entry carries it.

   Load applies each row as it is decoded, with no tree and no sort.
   Identifiers are dense and allocated in order by the store and the
   history, so each row must come back under its own id; every inline
   value's content hash is recomputed and checked against the stored
   one.  A referenced instance loads without a resident payload; the
   journal checks every reference against its cement store and wires
   the cold loader that fills the payload on first read.

   The checkpoint covers journal entries 1..seq (0 for a save made
   outside a journal), and its line's log, cement then wal, starts at
   entry [from]: seq+1, or a journal checkpoint's first cemented entry.

   There is one reader: a workspace file of an earlier format (1 and 2,
   s-expressions; 3, binary without the seq) is refused by name. *)

open Ddf_store
open Ddf_history
module L = Ddf_wire.Layout

exception Persist_error of string

let persist_errorf fmt = Format.kasprintf (fun s -> raise (Persist_error s)) fmt

let format_version = 4
let magic = "DDFC"

(* ------------------------------------------------------------------ *)
(* The description                                                     *)
(* ------------------------------------------------------------------ *)

type slot = Cemented of int | Value of string

let ( ** ) = L.( ** )
let slot_u = L.union "checkpoint slot"

let cemented_case =
  L.case slot_u (Char.code 'c') "cemented" L.Int (fun seq -> Cemented seq)

let value_case = L.case slot_u (Char.code 'v') "value" L.Str (fun t -> Value t)

let slot =
  L.described slot_u (function
    | Cemented seq -> L.V (cemented_case, seq)
    | Value text -> L.V (value_case, text))

let header = L.Str ** L.Int ** L.Int ** L.Int
let instance = L.Int ** L.Str ** Ddf_wire.Wire.meta ** L.Str ** slot

let conflict =
  L.Int ** L.Int ** L.Int ** L.Int ** L.Str ** L.Int ** L.Opt L.Int

let flow = L.Str ** L.Str

(* ------------------------------------------------------------------ *)
(* Stored records                                                      *)
(* ------------------------------------------------------------------ *)

let record_parts (r : History.record) =
  { Entry.rp_rid = r.History.rid; rp_task_entity = r.History.task_entity;
    rp_tool = r.History.tool; rp_inputs = r.History.inputs;
    rp_outputs = r.History.outputs; rp_at = r.History.at }

(* Every stored record enters the history here: checkpoint load, wal
   replay and sync apply.  A record the schema's construction rules
   refuse (a schema edit dropped a role it fills, say) is a typed
   [`Invalid] naming it. *)
let add_record (ctx : Ddf_exec.Engine.context) (p : Entry.record_parts) =
  let refuse m =
    Ddf_core.Error.errorf `Invalid "record %d breaks the schema's rules: %s"
      p.rp_rid m
  in
  try
    History.add ctx.history ctx.store ctx.schema ~task_entity:p.rp_task_entity
      ~tool:p.rp_tool ~inputs:p.rp_inputs ~outputs:p.rp_outputs ~at:p.rp_at
  with
  | Ddf_graph.Task_graph.Graph_error m | Ddf_schema.Schema.Schema_error m -> refuse m
  | Ddf_graph.Task_graph.Needs_specialization (entity, _) ->
    refuse (entity ^ " is abstract")

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

let write_header = L.write (L.Int ** header)
let write_instances = L.write_each instance
let write_records = L.write_each Entry.record_parts
let write_conflicts = L.write_each conflict
let write_flows = L.write_each flow

let save ?(seq = 0) ?(from = seq + 1) ?(cemented = fun _ -> None)
    ?(cold_text = fun _ -> None) session =
  let ctx = Ddf_session.Session.context session in
  let store = ctx.Ddf_exec.Engine.store in
  let history = ctx.Ddf_exec.Engine.history in
  let slot iid =
    match cemented iid with
    | Some seq -> Cemented seq
    | None -> (
      match
        if Store.payload_resident store iid then None else cold_text iid
      with
      | Some text -> Value text
      | None -> Value (Store.payload store iid))
  in
  let w = L.writer ~head:magic in
  write_header w
    (format_version,
     (ctx.Ddf_exec.Engine.user, (ctx.Ddf_exec.Engine.clock, (seq, from))));
  write_instances w
    (fun iid ->
      let i = Store.find store iid in
      (iid, (i.Store.entity, (i.Store.meta, (i.Store.data_hash, slot iid)))))
    (Store.all_instances store);
  write_records w record_parts (History.records history);
  write_conflicts w
    (fun (c : History.conflict) ->
      (c.cid, (c.c_base, (c.c_ours, (c.c_theirs, (c.c_origin, (c.c_at, c.c_winner)))))))
    (History.all_conflicts history);
  write_flows w
    (fun (name, g) -> (name, Ddf_graph.Sexp_form.to_string g))
    (List.filter_map
       (fun name ->
         Option.map (fun g -> (name, g))
           (Ddf_session.Session.catalog_flow session name))
       (Ddf_session.Session.flow_catalog session));
  L.written w

let save_file session path =
  Ddf_disk.Disk.replace path (fun oc -> output_string oc (save session))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let read_format = L.read L.Int
let read_header = L.read header
let read_instances = L.read_each instance
let read_records = L.read_each Entry.record_parts
let read_conflicts = L.read_each conflict
let read_flows = L.read_each flow

let refuse version kind =
  Ddf_core.Error.errorf `Invalid
    "checkpoint format %d%s is not readable: this build reads checkpoint \
     format %d only"
    version kind format_version

(* Formats 1 and 2 were s-expressions, pretty-printed from this head. *)
let refuse_sexp text =
  if String.starts_with ~prefix:"(ddf_workspace" text then
    refuse
      (if String.starts_with ~prefix:"(ddf_workspace\n (version 1)" text then 1
       else 2)
      " (s-expression)"

let load_line ?registry ?(cemented = fun _ -> None) schema text =
  refuse_sexp text;
  let r =
    try L.reader ~head:magic text
    with L.Wire_error _ -> persist_errorf "not a ddf checkpoint"
  in
  try
    let version = read_format r in
    if version <> format_version then refuse version "";
    let user, (clock, (seq, from)) = read_header r in
    if seq < 0 || from < 1 || from > seq + 1 then
      persist_errorf "checkpoint seq %d with its log from %d" seq from;
    let ctx = Ddf_exec.Engine.create_context ~user ?registry schema in
    let session = Ddf_session.Session.of_context ctx in
    let store = ctx.Ddf_exec.Engine.store in
    let history = ctx.Ddf_exec.Engine.history in
    read_instances r (fun (iid, (entity, (meta, (hash, slot)))) ->
        let got =
          match slot with
          | Value text ->
            (try ignore (Entry.value ~iid ~hash text)
             with Ddf_core.Error.Ddf_error e ->
               persist_errorf "%s" (Ddf_core.Error.message e));
            Store.put store ~entity ~hash ~meta text
          | Cemented seq ->
            if cemented iid <> Some seq then
              persist_errorf
                "instance %d: its payload is cemented put %d, which the cement \
                 store does not hold"
                iid seq;
            Store.put_cold store ~entity ~hash ~meta
        in
        if got <> iid then
          persist_errorf "instance ids are not dense (%d loaded as %d)" iid got);
    read_records r (fun p ->
        let got = (add_record ctx p).History.rid in
        if got <> p.rp_rid then
          persist_errorf "record ids are not dense (%d loaded as %d)" p.rp_rid
            got);
    read_conflicts r (fun (cid, (base, (ours, (theirs, (origin, (at, winner)))))) ->
        let c = History.add_conflict history ~base ~ours ~theirs ~origin ~at in
        if c.History.cid <> cid then
          persist_errorf "conflict ids are not dense (%d loaded as %d)" cid
            c.History.cid;
        Option.iter
          (fun w -> ignore (History.resolve_conflict history cid ~winner:w))
          winner);
    (* the clock resumes where it stopped *)
    ctx.Ddf_exec.Engine.clock <- clock;
    read_flows r (fun (name, text) ->
        match Ddf_graph.Sexp_form.of_string schema text with
        | g -> Ddf_session.Session.restore_flow session name g
        | exception
            ( Ddf_graph.Sexp_form.Parse_error m
            | Ddf_graph.Task_graph.Graph_error m
            | Ddf_schema.Schema.Schema_error m ) ->
          persist_errorf "catalog flow %S: %s" name m);
    L.read_end r;
    (seq, from, session)
  with L.Wire_error m -> persist_errorf "checkpoint: %s" m

let load ?registry ?cemented schema text =
  let _, _, session = load_line ?registry ?cemented schema text in
  session

let load_file ?registry ?cemented schema path =
  load_line ?registry ?cemented schema
    (In_channel.with_open_bin path In_channel.input_all)
