(* The in-process replay: the workload's request stream evaluated
   against a copy of the prepared database by calling each layer's
   public functions in the order the daemon's connection loop and
   writer loop do (lib/server/server.ml: decode, evaluate, compact if
   due, group-commit sync, publish, encode), with one bench-side span
   around each call.

   Probes that the daemon does not run -- History version queries on
   refresh targets, value encoding of installs, a workspace save after
   each compaction -- run after the request's span closes, so they
   never count in its self time. *)

open Ddf

type t = {
  journal : Journal.t;
  ctx : Engine.context;
  session : Session.t;
  spans : Spans.t;
  mutable view : Engine.view;       (* the published view reads use *)
  mutable probes : (unit -> unit) list;
  mutable wire_bytes : int;
  mutable requests : int;
  mutable snapshot_bytes : int list;
}

let compact_every = 512

let open_ ~spans ~dir =
  let journal =
    Spans.with_span spans "journal.open" (fun () ->
        Journal.open_ ~compact_every ~sync_mode:Journal.Group ~dir
          Standard_schemas.odyssey)
  in
  let ctx = Journal.context journal in
  { journal; ctx; session = Session.of_context ctx; spans;
    view = Engine.pin ctx; probes = []; wire_bytes = 0; requests = 0;
    snapshot_bytes = [] }

let close t = Journal.close t.journal

let span t name f = Spans.with_span t.spans name f
let probe t f = t.probes <- f :: t.probes

let rows_of snap iids =
  List.map
    (fun iid ->
      { Wire.row_iid = iid; row_entity = Store.Snapshot.entity_of snap iid;
        row_meta = Store.Snapshot.meta_of snap iid })
    iids

let nodes_with_entities flow nids =
  List.map (fun nid -> (nid, Task_graph.entity_of flow nid)) nids

let history_probes t target =
  let h = t.ctx.Engine.history and s = t.ctx.Engine.store
  and schema = t.ctx.Engine.schema in
  ignore
    (span t "history.out_of_date" (fun () -> History.out_of_date h s schema target));
  List.iter
    (fun iid ->
      ignore
        (span t "history.latest_version" (fun () ->
             History.latest_version h s schema iid));
      ignore (span t "history.versions" (fun () -> History.versions h s schema iid)))
    (History.ancestor_instances h target)

let rec eval t ~pin (req : Wire.request) =
  let ctx = t.ctx and session = t.session in
  match req with
  | Wire.Batch reqs ->
    Wire.Ok_batch
      (List.map
         (fun r -> try eval t ~pin r with e -> Wire.Error (Error.of_exn e))
         reqs)
  | Wire.Ping -> Wire.Ok_unit
  | Wire.Metrics -> Wire.Ok_metrics (Metrics.snapshot Metrics.global)
  | Wire.Browse filter ->
    let snap = (pin ()).Engine.v_store in
    Wire.Ok_rows
      (rows_of snap
         (span t "store.browse" (fun () -> Store.Snapshot.browse snap filter)))
  | Wire.Install { entity; label; keywords; value } ->
    let iid =
      span t "engine.install" (fun () ->
          Engine.install ctx ~entity ~label ~keywords (Codec.value_of_sexp value))
    in
    probe t (fun () ->
        let v = Codec.value_of_sexp value in
        ignore
          (span t "persist.value_encode" (fun () ->
               Sexp.to_string (Codec.value_to_sexp v))));
    Wire.Ok_int iid
  | Wire.Annotate { iid; label; comment; keywords } ->
    span t "store.annotate" (fun () ->
        Store.annotate ctx.Engine.store iid ?label ?comment ?keywords ());
    Wire.Ok_unit
  | Wire.Start_goal entity ->
    Wire.Ok_int
      (span t "session.flow_build" (fun () -> Session.start_goal_based session entity))
  | Wire.Expand nid ->
    let fresh = span t "session.flow_build" (fun () -> Session.expand session nid) in
    Wire.Ok_nodes (nodes_with_entities (Session.current_flow session) fresh)
  | Wire.Select (nid, iids) ->
    span t "session.flow_build" (fun () -> Session.select session nid iids);
    Wire.Ok_unit
  | Wire.Leaves ->
    let flow = Session.current_flow session in
    Wire.Ok_nodes (nodes_with_entities flow (Task_graph.leaves flow))
  | Wire.Run nid -> Wire.Ok_ints (span t "session.run" (fun () -> Session.run session nid))
  | Wire.Trace iid ->
    let g, _, binding =
      span t "history.trace" (fun () -> Session.history_of ~view:(pin ()) session iid)
    in
    Wire.Ok_text
      (Printf.sprintf "%s(%d instances in the derivation)\n" (Task_graph.to_ascii g)
         (List.length binding))
  | Wire.Uses iid ->
    Wire.Ok_ints (span t "session.uses_of" (fun () -> Session.uses_of ~view:(pin ()) session iid))
  | Wire.Refresh iid ->
    let r = span t "consistency.refresh" (fun () -> Consistency.refresh ctx iid) in
    probe t (fun () -> history_probes t iid);
    Wire.Ok_refresh
      { fresh = r.Consistency.fresh_instance; reran = r.Consistency.reran;
        reused = r.Consistency.reused }
  | r -> failwith ("replay: unsupported request " ^ Wire.request_name r)

let members = function Wire.Batch l -> List.length l | _ -> 1

(* One request, as the daemon serves it to a single client. *)
let call t req =
  let bytes = Wire.request_to_binary_string req in
  let resp, out =
    span t "request" @@ fun () ->
    let req = span t "wire.decode" (fun () -> Wire.request_of_binary_string bytes) in
    let resp =
      if Wire.is_mutation req then begin
        t.ctx.Engine.user <- Gen.user;
        let resp =
          try eval t ~pin:(fun () -> Engine.pin t.ctx) req
          with e -> Wire.Error (Error.of_exn e)
        in
        let compacted =
          span t "journal.maybe_compact" (fun () -> Journal.maybe_compact t.journal)
        in
        if compacted then begin
          (match Spans.samples t.spans "journal.maybe_compact" with
          | d :: _ -> Spans.record t.spans "journal.compact" d
          | [] -> ());
          t.snapshot_bytes <-
            (Unix.stat (Journal.snapshot_file t.journal)).Unix.st_size
            :: t.snapshot_bytes;
          probe t (fun () ->
              ignore (span t "persist.snapshot_save" (fun () -> Persist.save t.session)))
        end;
        span t "journal.sync" (fun () -> Journal.sync t.journal);
        t.view <- Engine.pin t.ctx;
        resp
      end
      else
        let view = t.view in
        try eval t ~pin:(fun () -> view) req with e -> Wire.Error (Error.of_exn e)
    in
    (resp, span t "wire.encode" (fun () -> Wire.response_to_binary_string resp))
  in
  t.wire_bytes <- t.wire_bytes + String.length bytes + String.length out;
  t.requests <- t.requests + members req;
  let probes = List.rev t.probes in
  t.probes <- [];
  List.iter (fun f -> f ()) probes;
  resp
