(* The seeded request streams of the three workloads.

   A workload is written once, against [exec]: the same code drives the
   daemon over its socket and the in-process replay, so both see the
   identical request stream for a seed.  Every response the stream
   depends on (iids, node ids) is deterministic with one client, which
   is what lets the replay reproduce the daemon's journal exactly.

   Each workload issues every operation class (flow, write, batch,
   query, refresh), in a mix that loads different layers; see
   README.md for why each mix was chosen. *)

open Ddf
module E = Standard_schemas.E

type cls = Flow | Write | Batch | Query | Refresh

let classes = [ Flow; Write; Batch; Query; Refresh ]

let cls_name = function
  | Flow -> "flow"
  | Write -> "write"
  | Batch -> "batch"
  | Query -> "query"
  | Refresh -> "refresh"

type exec = {
  call : Wire.request -> Wire.response;
  timed : 'a. cls -> (unit -> 'a) -> 'a;
      (** run one operation and record its latency under the class *)
}

let user = "bench"
let batch_size = 32
let n_keywords = 32

(* What the generator knows about the state it built: browse results
   are checked against it. *)
type family = {
  f_base : int;             (* version 0 of the netlist *)
  mutable f_latest : int;   (* newest version *)
  f_result : int;           (* performance result derived from version 0 *)
}

type state = {
  rng : Eda.Rng.t;
  tag : string;                          (* label prefix of this stream *)
  model : (string * string, int) Hashtbl.t;  (* (entity, keyword) -> installs *)
  mutable families : family array;
  mutable simulator : int;
  mutable device_models : int;
  mutable seq : int;                     (* label counter *)
  (* accounting *)
  mutable requests : int;
  mutable writes : int;                  (* acknowledged mutations *)
  mutable jobs : int;                    (* mutation frames: writer jobs *)
  mutable installs : int;
  mutable derived : int;
      (* instances the flows and refreshes made: one per invocation run *)
  mutable flows : int;
  mutable refreshes : int;
  mutable reads : int;
  mutable failed : int;
  mutable failures : string list;        (* first few, for the log *)
}

let copy_state ~rng ~tag s =
  { s with rng; tag; model = Hashtbl.copy s.model;
           families = Array.map (fun f -> { f with f_latest = f.f_latest }) s.families;
           requests = 0; writes = 0; jobs = 0; installs = 0; derived = 0;
           flows = 0; refreshes = 0; reads = 0; failed = 0; failures = [] }

let create ~rng ~tag =
  { rng; tag; model = Hashtbl.create 64; families = [||]; simulator = 0;
    device_models = 0; seq = 0; requests = 0; writes = 0; jobs = 0; installs = 0;
    derived = 0; flows = 0; refreshes = 0; reads = 0; failed = 0; failures = [] }

let fail st fmt =
  Printf.ksprintf
    (fun m ->
      st.failed <- st.failed + 1;
      if List.length st.failures < 10 then st.failures <- m :: st.failures)
    fmt

exception Op_failed

(* Count one request (batch members each count) and its outcome. *)
let account st req resp =
  let one r resp =
    st.requests <- st.requests + 1;
    match resp with
    | Wire.Error e ->
      fail st "%s: %s" (Wire.request_name r) (Error.to_string e)
    | _ ->
      if Wire.is_mutation r then st.writes <- st.writes + 1
      else st.reads <- st.reads + 1;
      (match r with Wire.Install _ -> st.installs <- st.installs + 1 | _ -> ())
  in
  match (req, resp) with
  | Wire.Batch reqs, Wire.Ok_batch resps when List.length reqs = List.length resps
    ->
    List.iter2 one reqs resps
  | Wire.Batch reqs, _ -> List.iter (fun r -> one r resp) reqs
  | r, resp -> one r resp

let call ex st req =
  if Wire.is_mutation req then st.jobs <- st.jobs + 1;
  let resp = ex.call req in
  account st req resp;
  match resp with Wire.Error _ -> raise Op_failed | r -> r

let bad_response st req =
  fail st "%s: bad response" (Wire.request_name req);
  raise Op_failed

let expect_int ex st req =
  match call ex st req with Wire.Ok_int i -> i | _ -> bad_response st req

let expect_ints ex st req =
  match call ex st req with Wire.Ok_ints l -> l | _ -> bad_response st req

let expect_nodes ex st req =
  match call ex st req with Wire.Ok_nodes l -> l | _ -> bad_response st req

(* An operation that raised [Op_failed] has been counted; the stream goes
   on with the next one. *)
let attempt f = try f () with Op_failed -> ()

let label st what =
  st.seq <- st.seq + 1;
  Printf.sprintf "%s-%s-%d" st.tag what st.seq

let keyword st = Printf.sprintf "k%d" (Eda.Rng.int st.rng n_keywords)

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

let netlist ?n_inputs ?n_gates st =
  let n_inputs = Option.value n_inputs ~default:(3 + Eda.Rng.int st.rng 4) in
  let n_gates = Option.value n_gates ~default:(6 + Eda.Rng.int st.rng 18) in
  Eda.Circuits.random ~name:(label st "nl") ~n_inputs ~n_gates st.rng

(* Small stimuli (well under the 512-byte iovec threshold) or an
   exhaustive set over a few inputs, which lands above it. *)
let stimuli st =
  let n = 1 + Eda.Rng.int st.rng 4 in
  let inputs = List.init n (fun i -> Printf.sprintf "%s_i%d" (label st "s") i) in
  Eda.Stimuli.exhaustive inputs

let install_req st ~entity value =
  let kw = keyword st in
  let key = (entity, kw) in
  Hashtbl.replace st.model key
    (1 + Option.value (Hashtbl.find_opt st.model key) ~default:0);
  Wire.Install
    { entity; label = label st entity; keywords = [ kw ];
      value = Codec.value_to_sexp value }

let install ex st ~entity value = expect_int ex st (install_req st ~entity value)

let library_item st =
  if Eda.Rng.int st.rng 2 = 0 then
    install_req st ~entity:E.edited_netlist (Value.Netlist (netlist st))
  else install_req st ~entity:E.stimuli (Value.Stimuli (stimuli st))

(* Member errors were counted by [account]; anything else but an iid is
   a malformed answer. *)
let check_batch st reqs resp =
  match resp with
  | Wire.Ok_batch resps when List.length resps = List.length reqs ->
    List.iter
      (function
        | Wire.Ok_int _ | Wire.Error _ -> ()
        | _ -> fail st "batch: bad member response")
      resps
  | _ -> fail st "batch: bad response"

let batch ex st =
  let reqs = List.init batch_size (fun _ -> library_item st) in
  let req = Wire.Batch reqs in
  attempt (fun () -> check_batch st reqs (ex.timed Batch (fun () -> call ex st req)))

let first_of ex st entity =
  match
    call ex st
      (Wire.Browse { Store.any_filter with Store.f_entities = Some [ entity ] })
  with
  | Wire.Ok_rows (r :: _) -> r.Wire.row_iid
  | _ -> fail st "no %s instance" entity; raise Op_failed

let lookup_tools ex st =
  st.simulator <- first_of ex st E.simulator;
  st.device_models <- first_of ex st E.device_models

(* ------------------------------------------------------------------ *)
(* Flows                                                               *)
(* ------------------------------------------------------------------ *)

let node st nodes entity =
  match List.find_opt (fun (_, e) -> e = entity) nodes with
  | Some (nid, _) -> nid
  | None -> fail st "no %s node" entity; raise Op_failed

(* The section 4.1 performance flow: returns the result iid and the
   number of task invocations the flow holds (one per expanded node). *)
let perf_flow ex st ~nl ~stim =
  let root = expect_int ex st (Wire.Start_goal E.performance) in
  let fresh = expect_nodes ex st (Wire.Expand root) in
  let tasks =
    match List.find_opt (fun (_, e) -> e = E.circuit) fresh with
    | Some (nid, _) -> ignore (expect_nodes ex st (Wire.Expand nid)); 2
    | None -> 1
  in
  let leaves = expect_nodes ex st Wire.Leaves in
  let select entity iid =
    ignore (call ex st (Wire.Select (node st leaves entity, [ iid ])))
  in
  select E.simulator st.simulator;
  select E.netlist nl;
  select E.stimuli stim;
  select E.device_models st.device_models;
  match expect_ints ex st (Wire.Run root) with
  | [] -> fail st "run: no result"; raise Op_failed
  | r :: _ ->
    st.flows <- st.flows + 1;
    st.derived <- st.derived + tasks;
    (r, tasks)

(* A scripted editing session deriving the next version of [nl]. *)
let edit_flow ex st nl =
  let name = label st "v" in
  let es =
    install ex st ~entity:E.netlist_editor
      (Value.Tool
         (Value.Scripted_netlist_editor
            (Eda.Edit_script.create ~name [ Eda.Edit_script.Rename name ])))
  in
  let root = expect_int ex st (Wire.Start_goal E.edited_netlist) in
  let fresh = expect_nodes ex st (Wire.Expand root) in
  ignore (call ex st (Wire.Select (node st fresh E.netlist_editor, [ es ])));
  ignore (call ex st (Wire.Select (node st fresh E.netlist, [ nl ])));
  match expect_ints ex st (Wire.Run root) with
  | v :: _ ->
    st.flows <- st.flows + 1;
    st.derived <- st.derived + 1;
    v
  | [] -> fail st "edit: no result"; raise Op_failed

(* A run result must resolve: its derivation trace is served. *)
let trace ex st iid =
  match call ex st (Wire.Trace iid) with
  | Wire.Ok_text s when String.length s > 0 -> ()
  | _ -> fail st "trace #%d: bad response" iid

let refresh ex st ~tasks iid =
  match ex.timed Refresh (fun () -> call ex st (Wire.Refresh iid)) with
  | Wire.Ok_refresh { fresh; reran; reused } ->
    st.refreshes <- st.refreshes + 1;
    st.derived <- st.derived + reran;
    if reran + reused <> tasks then
      fail st "refresh #%d: reran %d + reused %d <> %d invocations" iid reran
        reused tasks;
    fresh
  | _ -> fail st "refresh #%d: bad response" iid; raise Op_failed

let browse ex st entity =
  let kw = keyword st in
  let filter =
    { Store.any_filter with
      Store.f_entities = Some [ entity ]; f_keywords = [ kw ];
      f_user = Some user }
  in
  match call ex st (Wire.Browse filter) with
  | Wire.Ok_rows rows ->
    let expected = Option.value (Hashtbl.find_opt st.model (entity, kw)) ~default:0 in
    if List.length rows <> expected then
      fail st "browse %s/%s: %d rows, model says %d" entity kw
        (List.length rows) expected
  | _ -> fail st "browse: bad response"

(* Make [r], a performance result derived from [nl], stale with an edit
   of [nl], then refresh it: the refresh re-traces the flow against the
   newer version and reruns every invocation.  The edit flow is not
   timed; it only sets up the refresh. *)
let stale_refresh ex st ~nl ~tasks r =
  ignore (edit_flow ex st nl);
  if refresh ex st ~tasks r = r then fail st "refresh #%d: stale result kept" r

let annotate ex st iid =
  ignore
    (ex.timed Write (fun () ->
         call ex st
           (Wire.Annotate
              { iid; label = None; comment = Some (label st "note");
                keywords = None })))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  prepare : exec -> state -> unit;     (* build the start state; untimed *)
  iteration : exec -> state -> int -> unit;
  window : int;
      (* iterations in one measured window: a fixed count, so the state a
         window ends in, and every count, repeat for a seed *)
}

(* design_flows: the section 4.1 designer loop over a library. *)
let design_flows =
  let prepare ex st =
    lookup_tools ex st;
    for _ = 1 to 20 do batch ex st done
  in
  let iteration ex st i =
    attempt @@ fun () ->
    let nl, stim =
      ex.timed Write (fun () ->
          install ex st ~entity:E.edited_netlist (Value.Netlist (netlist st))),
      ex.timed Write (fun () ->
          install ex st ~entity:E.stimuli (Value.Stimuli (stimuli st)))
    in
    let r, tasks = ex.timed Flow (fun () -> perf_flow ex st ~nl ~stim) in
    ex.timed Query (fun () ->
        trace ex st r;
        browse ex st (if i land 1 = 0 then E.edited_netlist else E.stimuli));
    if i mod 2 = 0 then stale_refresh ex st ~nl ~tasks r;
    if i mod 4 = 0 then begin
      annotate ex st r;
      batch ex st
    end
  in
  { name = "design_flows"; prepare; iteration; window = 270 }

(* ingest: bulk import into a workspace holding only the tool catalog. *)
let ingest =
  let prepare ex st = lookup_tools ex st in
  let iteration ex st i =
    batch ex st;
    attempt (fun () ->
        let iid =
          ex.timed Write (fun () ->
              install ex st ~entity:E.stimuli (Value.Stimuli (stimuli st)))
        in
        annotate ex st iid);
    if i mod 2 = 0 then
      ex.timed Query (fun () ->
          browse ex st (if i land 2 = 0 then E.edited_netlist else E.stimuli));
    if i mod 4 = 0 then
      attempt (fun () ->
          let nl =
            ex.timed Write (fun () ->
                install ex st ~entity:E.edited_netlist (Value.Netlist (netlist st)))
          in
          let stim =
            ex.timed Write (fun () ->
                install ex st ~entity:E.stimuli (Value.Stimuli (stimuli st)))
          in
          let r, tasks = ex.timed Flow (fun () -> perf_flow ex st ~nl ~stim) in
          trace ex st r;
          stale_refresh ex st ~nl ~tasks r)
  in
  { name = "ingest"; prepare; iteration; window = 120 }

(* version_history: consistency maintenance over deep edit chains. *)
let n_families = 4
let chain_depth = 400

let version_history =
  let prepare ex st =
    lookup_tools ex st;
    st.families <-
      Array.init n_families (fun _ ->
          (* one size for every family: with only four, a random size
             would make bytes per write a property of the seed *)
          let nl =
            install ex st ~entity:E.edited_netlist
              (Value.Netlist (netlist ~n_inputs:5 ~n_gates:16 st))
          in
          let stim = install ex st ~entity:E.stimuli (Value.Stimuli (stimuli st)) in
          let r, _ = perf_flow ex st ~nl ~stim in
          { f_base = nl; f_latest = nl; f_result = r });
    for _ = 1 to chain_depth do
      Array.iter
        (fun f -> f.f_latest <- edit_flow ex st f.f_latest)
        st.families
    done
  in
  let iteration ex st i =
    let f = st.families.(i mod n_families) in
    attempt @@ fun () ->
    f.f_latest <- ex.timed Flow (fun () -> edit_flow ex st f.f_latest);
    let fresh = refresh ex st ~tasks:2 f.f_result in
    ex.timed Query (fun () ->
        trace ex st fresh;
        match call ex st (Wire.Uses f.f_base) with
        | Wire.Ok_ints (_ :: _) -> ()
        | _ -> fail st "uses #%d: no dependants" f.f_base);
    if i mod 2 = 0 then annotate ex st fresh;
    if i mod 4 = 0 then batch ex st
  in
  { name = "version_history"; prepare; iteration; window = 100 }

let all = [ design_flows; ingest; version_history ]
let find name = List.find_opt (fun w -> w.name = name) all
