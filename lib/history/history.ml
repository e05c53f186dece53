(* The design-history database.

   Each task invocation leaves one record: the goal entity, the tool
   instance used, the input instances per role, and every co-produced
   output.  That is the "small amount of meta-data" from which the
   paper derives the complete derivation history: backward chaining
   reconstructs how an object was made (Fig. 10), forward chaining
   finds what depends on it, and a flow trace -- the same form as a
   task graph -- is a semantically richer superset of a version tree
   (Fig. 11).

   MVCC: like the store, the whole hot state is one immutable record
   behind an [Atomic.t]; a snapshot is [Atomic.get], mutations CAS a
   new state in.  Store-joined reads (traces, templates) pair a
   history snapshot with a {!Store.Snapshot.t} so the two views are
   frozen together. *)

open Ddf_schema
open Ddf_store
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type record = {
  rid : int;
  task_entity : string;                   (* goal entity of the task *)
  tool : Store.iid option;                (* None for compositions *)
  inputs : (string * Store.iid) list;     (* role -> instance *)
  outputs : (string * Store.iid) list;    (* entity -> instance *)
  at : int;                               (* logical time of execution *)
}

(* A sync conflict: two journal histories derived different versions
   of the same design object.  Both derivations stay in the history as
   alternative versions (the paper's Fig. 11 version branches); the
   conflict is a first-class, queryable pointer at the branch point,
   resolvable by picking a winner but never by deleting a branch.
   Immutable: resolution replaces the record, so a conflict value read
   through a snapshot can never be torn by a concurrent resolve. *)
type conflict = {
  cid : int;
  c_base : Store.iid;      (* the shared version both sides edited *)
  c_ours : Store.iid;      (* the locally derived alternative *)
  c_theirs : Store.iid;    (* the remotely derived alternative *)
  c_origin : string;       (* workspace id the remote branch came from *)
  c_at : int;              (* logical time the conflict was detected *)
  c_winner : Store.iid option;
}

type conflict_event = Conflict_added of conflict | Conflict_resolved of conflict

(* Versions ordered by (creation time, iid): the order in which
   [latest_version] picks the newest. *)
module Version_set = Set.Make (struct
  type t = int * Store.iid

  let compare (a, i) (b, j) =
    match Int.compare a b with 0 -> Int.compare i j | c -> c
end)

(* The immutable hot state.  The last four fields are the version
   index (see "Versioning" below), kept in step with the records by
   [add], so every snapshot carries the index of its own prefix. *)
type state = {
  hs_next_rid : int;
  hs_records : record Int_map.t;
  hs_produced_by : int Int_map.t;         (* instance -> record *)
  hs_used_by : int list Int_map.t;        (* instance -> rids, newest first *)
  hs_next_cid : int;
  hs_conflicts : conflict Int_map.t;
  hs_vparent : Store.iid Int_map.t;       (* version -> edit predecessor *)
  hs_vchildren : Int_set.t Int_map.t;     (* version -> edit successors *)
  hs_vorigin : Store.iid Int_map.t;       (* version -> first of its tree *)
  hs_vtrees : Version_set.t Int_map.t;    (* first version -> its tree *)
}

type t = {
  state : state Atomic.t;
  mutable observer : (record -> unit) option;
  mutable conflict_observer : (conflict_event -> unit) option;
}

type snapshot = state

let history_errorf ?(code = `Invalid) fmt = Ddf_core.Error.errorf code fmt

let m_appends = Ddf_obs.Metrics.counter "history.appends"
let m_queries = Ddf_obs.Metrics.counter "history.template_queries"
let h_backward = Ddf_obs.Metrics.histogram "history.backward_depth"
let h_forward = Ddf_obs.Metrics.histogram "history.forward_depth"

let empty_state =
  {
    hs_next_rid = 1;
    hs_records = Int_map.empty;
    hs_produced_by = Int_map.empty;
    hs_used_by = Int_map.empty;
    hs_next_cid = 1;
    hs_conflicts = Int_map.empty;
    hs_vparent = Int_map.empty;
    hs_vchildren = Int_map.empty;
    hs_vorigin = Int_map.empty;
    hs_vtrees = Int_map.empty;
  }

let create () =
  { state = Atomic.make empty_state; observer = None; conflict_observer = None }

(* Pure-state CAS retry loop; [f]'s side effects must be none (it may
   run twice under contention). *)
let rec update h f =
  let old_state = Atomic.get h.state in
  let new_state, ret = f old_state in
  if Atomic.compare_and_set h.state old_state new_state then ret
  else update h f

let snapshot h = Atomic.get h.state

let size h = Int_map.cardinal (Atomic.get h.state).hs_records
let tick h = (Atomic.get h.state).hs_next_rid

let restore_tick h n =
  update h (fun st ->
      if n < st.hs_next_rid then
        history_errorf "cannot move the record counter back (%d < %d)" n
          st.hs_next_rid;
      ({ st with hs_next_rid = n }, ()))

let set_observer h f = h.observer <- Some f
let clear_observer h = h.observer <- None

let set_conflict_observer h f = h.conflict_observer <- Some f
let clear_conflict_observer h = h.conflict_observer <- None

let conflict_tick h = (Atomic.get h.state).hs_next_cid

let add_conflict h ~base ~ours ~theirs ~origin ~at =
  let c =
    update h (fun st ->
        let cid = st.hs_next_cid in
        let c =
          { cid; c_base = base; c_ours = ours; c_theirs = theirs;
            c_origin = origin; c_at = at; c_winner = None }
        in
        ( { st with
            hs_next_cid = cid + 1;
            hs_conflicts = Int_map.add cid c st.hs_conflicts },
          c ))
  in
  (match h.conflict_observer with None -> () | Some f -> f (Conflict_added c));
  c

(* A record is an editing task when one input has the same root entity
   type as an output: versioning is characterized exactly so in the
   paper.  The version parent of such an output is the first such
   input.  Returns the record's edges as ((output, its creation time),
   (parent, its creation time)); an instance the store or the schema
   does not know takes part in none. *)
let version_edges store schema ~inputs ~outputs =
  let describe iid =
    match Store.Snapshot.find_opt store iid with
    | None -> None
    | Some inst -> (
      match Schema.root_of schema inst.Store.entity with
      | root -> Some (root, (iid, inst.Store.meta.Store.created_at))
      | exception Schema.Schema_error _ -> None)
  in
  match List.filter_map (fun (_, i) -> describe i) inputs with
  | [] -> []
  | inputs ->
    List.filter_map
      (fun (_, out) ->
        match describe out with
        | None -> None
        | Some (root, out) ->
          List.find_map
            (fun (r, input) -> if r = root then Some (out, input) else None)
            inputs)
      outputs

(* Fold one edge [parent -> out] into the version index.  [out] has
   just passed the one-producer check, so it has no parent yet; it
   joins the parent's tree, bringing along the successors earlier
   records may already have given it (then [out] heads a tree of its
   own, whose members move over to the parent's origin). *)
let add_version_edge st ((out, out_at), (p, p_at)) =
  let origin, trees =
    match Int_map.find_opt p st.hs_vorigin with
    | Some o -> (o, st.hs_vtrees)
    | None -> (p, Int_map.add p (Version_set.singleton (p_at, p)) st.hs_vtrees)
  in
  let tree = Int_map.find origin trees in
  let vorigin = Int_map.add p origin st.hs_vorigin in
  let vorigin, tree, trees =
    match Int_map.find_opt out vorigin with
    | None ->
      ( Int_map.add out origin vorigin,
        Version_set.add (out_at, out) tree,
        trees )
    | Some o when o = origin -> (vorigin, tree, trees)  (* an edit cycle *)
    | Some o ->
      let sub = Int_map.find o trees in
      ( Version_set.fold
          (fun (_, v) acc -> Int_map.add v origin acc)
          sub vorigin,
        Version_set.union tree sub,
        Int_map.remove o trees )
  in
  let siblings =
    Option.value (Int_map.find_opt p st.hs_vchildren) ~default:Int_set.empty
  in
  { st with
    hs_vparent = Int_map.add out p st.hs_vparent;
    hs_vchildren = Int_map.add p (Int_set.add out siblings) st.hs_vchildren;
    hs_vorigin = vorigin;
    hs_vtrees = Int_map.add origin tree trees }

let add h store schema ~task_entity ~tool ~inputs ~outputs ~at =
  if outputs = [] then history_errorf "a record needs at least one output";
  let edges = version_edges (Store.snapshot store) schema ~inputs ~outputs in
  let r =
    update h (fun st ->
        let rid = st.hs_next_rid in
        let r = { rid; task_entity; tool; inputs; outputs; at } in
        let produced_by =
          List.fold_left
            (fun acc (_, iid) ->
              if Int_map.mem iid acc then
                history_errorf ~code:`Conflict
                  "instance %d already has a producing record" iid;
              Int_map.add iid rid acc)
            st.hs_produced_by outputs
        in
        let note_use acc iid =
          let l = Option.value (Int_map.find_opt iid acc) ~default:[] in
          Int_map.add iid (rid :: l) acc
        in
        let used_by =
          List.fold_left (fun acc (_, iid) -> note_use acc iid)
            st.hs_used_by inputs
        in
        let used_by =
          match tool with Some t -> note_use used_by t | None -> used_by
        in
        let st =
          { st with
            hs_next_rid = rid + 1;
            hs_records = Int_map.add rid r st.hs_records;
            hs_produced_by = produced_by;
            hs_used_by = used_by }
        in
        (List.fold_left add_version_edge st edges, r))
  in
  Ddf_obs.Metrics.incr m_appends;
  (match h.observer with None -> () | Some f -> f r);
  r

let resolve_conflict h cid ~winner =
  let c, resolved =
    update h (fun st ->
        match Int_map.find_opt cid st.hs_conflicts with
        | None -> history_errorf ~code:`Not_found "no conflict %d" cid
        | Some c -> (
          if winner <> c.c_base && winner <> c.c_ours && winner <> c.c_theirs
          then
            history_errorf "conflict %d: %d is not one of its versions" cid
              winner;
          match c.c_winner with
          | Some w when w = winner ->
            (st, (c, false))   (* idempotent: re-applying a synced resolution *)
          | Some w ->
            history_errorf ~code:`Conflict
              "conflict %d already resolved in favour of %d" cid w
          | None ->
            let c = { c with c_winner = Some winner } in
            ( { st with hs_conflicts = Int_map.add cid c st.hs_conflicts },
              (c, true) )))
  in
  (if resolved then
     match h.conflict_observer with
     | None -> ()
     | Some f -> f (Conflict_resolved c));
  c

(* ------------------------------------------------------------------ *)
(* Reads over one frozen state                                         *)
(* ------------------------------------------------------------------ *)

(* Everything below is pure over a [state] (plus, for store-joined
   queries, a [Store.Snapshot.t] and a schema); the [Snapshot] module
   and the live wrappers at the bottom both delegate here. *)

let st_find st rid =
  match Int_map.find_opt rid st.hs_records with
  | Some r -> r
  | None -> history_errorf ~code:`Not_found "no record %d" rid

let st_records st = List.map snd (Int_map.bindings st.hs_records)

let st_find_conflict st cid =
  match Int_map.find_opt cid st.hs_conflicts with
  | Some c -> c
  | None -> history_errorf ~code:`Not_found "no conflict %d" cid

(* Unordered-pair lookup: the two sides of a sync each record the same
   divergence with [ours]/[theirs] swapped, so dedup ignores the
   orientation. *)
let st_find_conflict_pair st a b =
  let key x = (min x.c_ours x.c_theirs, max x.c_ours x.c_theirs) in
  let want = (min a b, max a b) in
  Int_map.fold
    (fun _ c acc -> if acc = None && key c = want then Some c else acc)
    st.hs_conflicts None

let st_all_conflicts st = List.map snd (Int_map.bindings st.hs_conflicts)

let st_conflicts st =
  List.filter (fun c -> c.c_winner = None) (st_all_conflicts st)

(* The record that created an instance; None for instances installed
   directly by the designer (sources). *)
let st_derivation_of st iid =
  Option.map (st_find st) (Int_map.find_opt iid st.hs_produced_by)

let st_uses_of st iid =
  match Int_map.find_opt iid st.hs_used_by with
  | Some l -> List.rev_map (st_find st) l
  | None -> []

(* Backward chaining: every record in the derivation history of an
   instance, nearest first. *)
let st_backward_closure st iid =
  let seen_records = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go iid =
    match st_derivation_of st iid with
    | None -> ()
    | Some r ->
      if not (Hashtbl.mem seen_records r.rid) then begin
        Hashtbl.add seen_records r.rid ();
        acc := r :: !acc;
        List.iter (fun (_, i) -> go i) r.inputs;
        Option.iter go r.tool
      end
  in
  go iid;
  Ddf_obs.Metrics.observe h_backward (float_of_int (Hashtbl.length seen_records));
  List.rev !acc

(* Forward chaining as a fold: [f] sees every record that transitively
   depends on an instance once, in preorder, oldest use first. *)
let st_fold_forward st iid f init =
  let seen_records = Hashtbl.create 16 in
  let rec go acc iid =
    match Int_map.find_opt iid st.hs_used_by with
    | None -> acc
    | Some rids ->
      List.fold_left
        (fun acc rid ->
          if Hashtbl.mem seen_records rid then acc
          else begin
            Hashtbl.add seen_records rid ();
            let r = st_find st rid in
            List.fold_left (fun acc (_, out) -> go acc out) (f acc r) r.outputs
          end)
        acc (List.rev rids)
  in
  let acc = go init iid in
  Ddf_obs.Metrics.observe h_forward (float_of_int (Hashtbl.length seen_records));
  acc

(* Every record that transitively depends on an instance -- e.g. all
   the performances derived from a netlist. *)
let st_forward_closure st iid =
  List.rev (st_fold_forward st iid (fun acc r -> r :: acc) [])

let st_derived_instances st iid =
  st_fold_forward st iid
    (fun acc r ->
      List.fold_left (fun acc (_, out) -> Int_set.add out acc) acc r.outputs)
    Int_set.empty
  |> Int_set.elements

let st_ancestor_instances st iid =
  st_backward_closure st iid
  |> List.concat_map (fun r ->
         (match r.tool with Some t -> [ t ] | None -> [])
         @ List.map snd r.inputs)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Flow traces (Fig. 11(b))                                            *)
(* ------------------------------------------------------------------ *)

(* The derivation history of an instance as a task graph with an
   instance binding: the same form queries and re-execution use. *)
let st_trace st store schema iid =
  (* gather nodes and edges, then assemble the graph in one pass *)
  let binding = Hashtbl.create 16 in  (* iid -> node *)
  let nodes = ref [] and edges = ref [] in
  let counter = ref 0 in
  let rec node_of iid =
    match Hashtbl.find_opt binding iid with
    | Some nid -> nid
    | None ->
      let entity = Store.Snapshot.entity_of store iid in
      let nid = !counter in
      incr counter;
      Hashtbl.add binding iid nid;
      nodes := (nid, entity) :: !nodes;
      (match st_derivation_of st iid with
      | None -> ()
      | Some r ->
        (match (r.tool, Schema.functional_dep schema entity) with
        | Some tool, Some d ->
          let tnid = node_of tool in
          edges := (nid, d.Schema.role, tnid) :: !edges
        | Some _, None | None, Some _ | None, None -> ());
        List.iter
          (fun (role, input) ->
            let inid = node_of input in
            edges := (nid, role, inid) :: !edges)
          r.inputs);
      nid
  in
  let root = node_of iid in
  let g =
    Ddf_graph.Task_graph.of_parts schema (List.rev !nodes) (List.rev !edges)
  in
  let pairs = Hashtbl.fold (fun iid nid acc -> (nid, iid) :: acc) binding [] in
  (g, root, pairs)

(* A node of the trace-text walk: its preorder number, its entity, and
   the on-path mark (the walk is still below it). *)
type text_node = {
  tn_nid : int;
  tn_entity : string;
  mutable tn_open : bool;
}

(* The length of the last trace text, which sizes the next one's
   buffer: a deep history's trace runs to hundreds of KiB, and growing
   a buffer to that by doubling allocates it about twice over.  Shared
   by every domain and thread; a stale value only costs one resize. *)
let trace_size_hint = Atomic.make 4096

(* The text [Wire.Trace] answers: [Task_graph.to_ascii] of
   [st_trace]'s graph and a line counting its instances, written into
   one buffer by one walk over the records, without assembling the
   graph.  The walk visits, numbers and orders nodes
   as [st_trace] does (tool first, then inputs in record order; node
   ids in preorder), so the text is the same byte for byte.  It also
   applies every check [of_parts] applies, to the same edges in the
   same order: a violation is noted where [of_parts] meets it and
   raised after the walk -- node errors before edge errors before a
   cycle, as [of_parts] orders them -- so a history [st_trace] rejects
   fails here with the same exception.  A cycle is an edge back to a
   node the walk is still below. *)
let st_trace_text st store schema iid =
  let buf =
    let hint = Atomic.get trace_size_hint in
    Buffer.create (hint + (hint / 8))
  in
  let binding = Hashtbl.create 64 in  (* iid -> node *)
  (* construction rule and functional dependency, once per entity *)
  let rules = Hashtbl.create 16 in
  let rule_of entity =
    match Hashtbl.find_opt rules entity with
    | Some rf -> rf
    | None ->
      let rule = Schema.construction_rule schema entity in
      let functional =
        match rule with
        | Schema.Constructed deps ->
          List.find_opt
            (fun (d : Schema.dep) -> d.dep_kind = Schema.Functional)
            deps
        | Schema.Abstract _ | Schema.Source -> None
      in
      Hashtbl.add rules entity (rule, functional);
      (rule, functional)
  in
  let node_error = ref None and edge_error = ref None and cyclic = ref false in
  let note slot e = match !slot with None -> slot := Some e | Some _ -> () in
  let count = ref 0 in
  let rec visit depth via iid =
    match Hashtbl.find_opt binding iid with
    | Some n ->
      if n.tn_open then cyclic := true;
      Ddf_graph.Task_graph.add_ascii_line buf ~depth ~via ~entity:n.tn_entity
        ~nid:n.tn_nid ~shared:true;
      n
    | None ->
      let entity = Store.Snapshot.entity_of store iid in
      let n = { tn_nid = !count; tn_entity = entity; tn_open = true } in
      incr count;
      Hashtbl.add binding iid n;
      Ddf_graph.Task_graph.add_ascii_line buf ~depth ~via ~entity ~nid:n.tn_nid
        ~shared:false;
      (match st_derivation_of st iid with
      | None -> (
        match Schema.find schema entity with
        | _ -> ()
        | exception e -> note node_error e)
      | Some r ->
        (* raises now for an unknown entity, as [st_trace] does *)
        let rule, functional = rule_of entity in
        let filled = ref [] in
        let edge role dep =
          let decl =
            match Ddf_graph.Task_graph.declared_dep ~entity rule role with
            | d -> Ok d
            | exception e -> Error e
          in
          (* on an error the text is dropped, so any tag will do *)
          let kind =
            match decl with
            | Ok d -> d.Schema.dep_kind
            | Error _ -> Schema.Functional
          in
          let d = visit (depth + 1) (Some (kind, role)) dep in
          (match decl with
          | Error e -> note edge_error e
          | Ok decl -> (
            let dep_entity = d.tn_entity in
            match Ddf_graph.Task_graph.dep_fits schema decl ~dep_entity with
            | true ->
              if List.mem role !filled then
                note edge_error
                  (Ddf_graph.Task_graph.filled_twice role n.tn_nid)
            | false ->
              note edge_error
                (Ddf_graph.Task_graph.ill_typed ~user_entity:entity decl
                   ~dep_entity)
            | exception e -> note edge_error e));
          filled := role :: !filled
        in
        (match (r.tool, functional) with
        | Some tool, Some d -> edge d.Schema.role tool
        | Some _, None | None, Some _ | None, None -> ());
        List.iter (fun (role, input) -> edge role input) r.inputs);
      n.tn_open <- false;
      n
  in
  ignore (visit 0 None iid);
  (match (!node_error, !edge_error) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> if !cyclic then raise Ddf_graph.Task_graph.cycle);
  Buffer.add_char buf '(';
  Buffer.add_string buf (string_of_int !count);
  Buffer.add_string buf " instances in the derivation)\n";
  Atomic.set trace_size_hint (Buffer.length buf);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Query by template (section 4.2)                                     *)
(* ------------------------------------------------------------------ *)

(* Find bindings of a task graph's nodes to instances consistent with
   the history: bound nodes are fixed, the rest are solved for.  Used
   for queries like "find the simulations performed on this netlist"
   where the template is the flow itself. *)
let st_query_template st store (g : Ddf_graph.Task_graph.t) ~bound =
  Ddf_obs.Metrics.incr m_queries;
  let schema = Ddf_graph.Task_graph.schema g in
  let satisfies nid iid =
    Schema.is_subtype schema
      ~sub:(Store.Snapshot.entity_of store iid)
      ~super:(Ddf_graph.Task_graph.entity_of g nid)
  in
  (* candidate instances for a node under a partial binding *)
  let candidates partial nid =
    (* if a user of this node is bound, the candidates come straight
       from its derivation record *)
    let from_users =
      List.filter_map
        (fun (user, role) ->
          match List.assoc_opt user partial with
          | None -> None
          | Some user_iid -> (
            match st_derivation_of st user_iid with
            | None -> Some []
            | Some r -> (
              match
                Schema.functional_dep schema
                  (Store.Snapshot.entity_of store user_iid)
              with
              | Some d when d.Schema.role = role ->
                Some (match r.tool with Some t -> [ t ] | None -> [])
              | Some _ | None ->
                Some
                  (match List.assoc_opt role r.inputs with
                  | Some i -> [ i ]
                  | None -> []))))
        (Ddf_graph.Task_graph.in_edges g nid)
    in
    match from_users with
    | constraints when constraints <> [] ->
      (* intersect the per-user constraints *)
      let inter a b = List.filter (fun x -> List.mem x b) a in
      (match constraints with
      | first :: rest -> List.fold_left inter first rest
      | [] -> [])
    | _ ->
      (* otherwise any instance of the entity's subtree *)
      let entity = Ddf_graph.Task_graph.entity_of g nid in
      List.concat_map
        (Store.Snapshot.instances_of_entity store)
        (entity :: Schema.descendants schema entity)
  in
  (* does the history record of [user_iid] really bind [role] to
     [dep_iid]? *)
  let edge_ok user_iid role dep_iid =
    match st_derivation_of st user_iid with
    | None -> false
    | Some r -> (
      match
        Schema.functional_dep schema (Store.Snapshot.entity_of store user_iid)
      with
      | Some d when d.Schema.role = role -> r.tool = Some dep_iid
      | Some _ | None -> List.assoc_opt role r.inputs = Some dep_iid)
  in
  (* every edge between the newly assigned node and an already assigned
     neighbour must agree with the history *)
  let consistent partial nid iid =
    List.for_all
      (fun (e : Ddf_graph.Task_graph.edge) ->
        match List.assoc_opt e.Ddf_graph.Task_graph.dst partial with
        | None -> true
        | Some dep_iid -> edge_ok iid e.Ddf_graph.Task_graph.role dep_iid)
      (Ddf_graph.Task_graph.out_edges g nid)
    && List.for_all
         (fun (user, role) ->
           match List.assoc_opt user partial with
           | None -> true
           | Some user_iid -> edge_ok user_iid role iid)
         (Ddf_graph.Task_graph.in_edges g nid)
  in
  (* order: bound nodes first, then reverse topological (users before
     dependencies) so derivations drive the search downward *)
  let order =
    let topo = List.rev (Ddf_graph.Task_graph.topological_order g) in
    let bound_nodes = List.map fst bound in
    bound_nodes @ List.filter (fun n -> not (List.mem n bound_nodes)) topo
  in
  let max_results = 1000 in
  let results = ref [] and count = ref 0 in
  let rec search partial = function
    | [] ->
      if !count < max_results then begin
        incr count;
        results := List.rev partial :: !results
      end
    | nid :: rest ->
      let cands =
        match List.assoc_opt nid bound with
        | Some iid -> [ iid ]
        | None -> candidates partial nid
      in
      List.iter
        (fun iid ->
          if satisfies nid iid && consistent partial nid iid
             && !count < max_results
          then search ((nid, iid) :: partial) rest)
        (List.sort_uniq compare cands)
  in
  search [] order;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Versioning (Fig. 11)                                                *)
(* ------------------------------------------------------------------ *)

(* The version index in the state answers every query here: the
   parent and children edges directly, and a version's whole tree as
   the (creation time, iid)-ordered set filed under the tree's first
   version.  A lone instance is its own one-version tree. *)

let st_version_parent st iid = Int_map.find_opt iid st.hs_vparent

(* Direct edit successors: the alternative versions branching off an
   instance.  More than one child — siblings — is exactly the shape an
   anti-entropy merge of divergent workspaces produces. *)
let st_version_children st iid =
  match Int_map.find_opt iid st.hs_vchildren with
  | Some s -> Int_set.elements s
  | None -> []

type version_tree = {
  v_iid : Store.iid;
  v_children : version_tree list;
}

(* The version tree rooted at an instance, following edit successors. *)
let st_version_tree st iid =
  let rec build iid =
    { v_iid = iid; v_children = List.map build (st_version_children st iid) }
  in
  build iid

let rec version_tree_size t =
  1 + List.fold_left (fun acc c -> acc + version_tree_size c) 0 t.v_children

let st_tree_of st iid =
  Option.map
    (fun o -> Int_map.find o st.hs_vtrees)
    (Int_map.find_opt iid st.hs_vorigin)

(* All versions (the instances in the version tree), ascending by iid. *)
let st_versions st iid =
  match st_tree_of st iid with
  | None -> [ iid ]
  | Some tree ->
    Version_set.fold (fun (_, v) acc -> v :: acc) tree []
    |> List.sort Int.compare

(* The newest instance in the version tree by creation time (ties go
   to the higher iid); the instance itself when it has no versions. *)
let st_latest_version st iid =
  match st_tree_of st iid with
  | None -> iid
  | Some tree -> snd (Version_set.max_elt tree)

(* ------------------------------------------------------------------ *)
(* Consistency (out-of-date analysis)                                  *)
(* ------------------------------------------------------------------ *)

(* An instance is out of date when some input of its derivation has a
   newer version: e.g. the layout was edited after this netlist was
   extracted from it.  Returns the stale (input, newer-version) pairs. *)
let st_out_of_date st iid =
  match st_derivation_of st iid with
  | None -> []
  | Some r ->
    List.filter_map
      (fun (role, input) ->
        match st_tree_of st input with
        | None -> None
        | Some tree -> (
          let newer =
            Version_set.to_seq_from (r.at + 1, min_int) tree
            |> Seq.filter_map (fun (_, v) ->
                   if v <> input then Some v else None)
            |> List.of_seq |> List.sort Int.compare
          in
          match newer with [] -> None | _ -> Some (role, input, newer)))
      r.inputs

let st_is_up_to_date st iid = st_out_of_date st iid = []

(* ------------------------------------------------------------------ *)
(* The snapshot read API                                               *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type t = snapshot

  let size st = Int_map.cardinal st.hs_records
  let tick st = st.hs_next_rid
  let conflict_tick st = st.hs_next_cid
  let find = st_find
  let records = st_records
  let find_conflict = st_find_conflict
  let find_conflict_pair = st_find_conflict_pair
  let all_conflicts = st_all_conflicts
  let conflicts = st_conflicts
  let derivation_of = st_derivation_of
  let uses_of = st_uses_of
  let backward_closure = st_backward_closure
  let forward_closure = st_forward_closure
  let derived_instances = st_derived_instances
  let ancestor_instances = st_ancestor_instances
  let trace = st_trace
  let trace_text = st_trace_text
  let query_template = st_query_template
  let version_parent = st_version_parent
  let version_children = st_version_children
  let version_tree = st_version_tree
  let versions = st_versions
  let latest_version = st_latest_version
  let out_of_date = st_out_of_date
  let is_up_to_date = st_is_up_to_date
end

(* ------------------------------------------------------------------ *)
(* Live reads: thin wrappers over fresh snapshots.  The history state  *)
(* is captured *before* the store snapshot: records only ever refer to *)
(* instances already installed, so a later store view covers every     *)
(* instance a record mentions.                                         *)
(* ------------------------------------------------------------------ *)

let find h rid = st_find (Atomic.get h.state) rid
let records h = st_records (Atomic.get h.state)
let find_conflict h cid = st_find_conflict (Atomic.get h.state) cid
let find_conflict_pair h a b = st_find_conflict_pair (Atomic.get h.state) a b
let all_conflicts h = st_all_conflicts (Atomic.get h.state)
let conflicts h = st_conflicts (Atomic.get h.state)
let derivation_of h iid = st_derivation_of (Atomic.get h.state) iid
let uses_of h iid = st_uses_of (Atomic.get h.state) iid
let backward_closure h iid = st_backward_closure (Atomic.get h.state) iid
let forward_closure h iid = st_forward_closure (Atomic.get h.state) iid
let derived_instances h iid = st_derived_instances (Atomic.get h.state) iid
let ancestor_instances h iid = st_ancestor_instances (Atomic.get h.state) iid

let trace h store schema iid =
  let st = Atomic.get h.state in
  st_trace st (Store.snapshot store) schema iid

let trace_text h store schema iid =
  let st = Atomic.get h.state in
  st_trace_text st (Store.snapshot store) schema iid

let query_template h store g ~bound =
  let st = Atomic.get h.state in
  st_query_template st (Store.snapshot store) g ~bound

let version_parent h iid = st_version_parent (Atomic.get h.state) iid
let version_children h iid = st_version_children (Atomic.get h.state) iid
let version_tree h iid = st_version_tree (Atomic.get h.state) iid
let versions h _store _schema iid = st_versions (Atomic.get h.state) iid

let latest_version h _store _schema iid =
  st_latest_version (Atomic.get h.state) iid

let out_of_date h _store _schema iid = st_out_of_date (Atomic.get h.state) iid
let is_up_to_date h iid = st_is_up_to_date (Atomic.get h.state) iid

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_record ppf r =
  Fmt.pf ppf "r%d@%d %s: (%a)%a -> %a" r.rid r.at r.task_entity
    Fmt.(option ~none:(any "compose") int)
    r.tool
    Fmt.(list ~sep:nop (fun ppf (role, i) -> Fmt.pf ppf " %s=#%d" role i))
    r.inputs
    Fmt.(list ~sep:comma (fun ppf (e, i) -> Fmt.pf ppf "#%d:%s" i e))
    r.outputs

let pp ppf h =
  Fmt.pf ppf "@[<v>history: %d records@,%a@]" (size h)
    Fmt.(list ~sep:cut pp_record)
    (records h)
