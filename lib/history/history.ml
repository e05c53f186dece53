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
   new state in.  Records are added in batches ([add] is a batch of
   one): each record is checked and filed into a batch built over the
   state, seeing the records before it, and the batch is published as
   one new state.  Store-joined reads (traces, templates) pair a
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

(* An instance's place in the derivation graph: the record that
   produced it and the records using it, newest first.  They hold the
   records themselves, not their rids, so a chaining step is one read. *)
type links = { producer : record option; users : record list }

let no_links = { producer = None; users = [] }

(* The immutable hot state.  Rids and iids are dense from 1, so the
   records and every per-instance column are [Dense] columns indexed by
   id - 1 (an instance a column does not reach reads the column's
   empty value: [no_links], 0 for no instance, an empty set).  The last
   four columns are the version index (see "Versioning" below), kept
   in step with the records by [add_row], so every snapshot carries the
   index of its own prefix. *)
type state = {
  hs_records : record Dense.t;
  hs_links : links Dense.t;
  hs_next_cid : int;
  hs_conflicts : conflict Int_map.t;
  hs_vparent : Store.iid Dense.t;       (* version -> edit predecessor *)
  hs_vchildren : Int_set.t Dense.t;     (* version -> edit successors *)
  hs_vorigin : Store.iid Dense.t;       (* version -> first of its tree *)
  hs_vtrees : Version_set.t Dense.t;    (* first version -> its tree *)
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
    hs_records = Dense.empty;
    hs_links = Dense.empty;
    hs_next_cid = 1;
    hs_conflicts = Int_map.empty;
    hs_vparent = Dense.empty;
    hs_vchildren = Dense.empty;
    hs_vorigin = Dense.empty;
    hs_vtrees = Dense.empty;
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

(* [iid]'s cell of a per-instance column, [none] past its end: one
   read. *)
let cell column ~none iid =
  if iid >= 1 && iid <= Dense.length column then Dense.get column (iid - 1)
  else none

let links st iid = cell st.hs_links ~none:no_links iid

let set_observer h f = h.observer <- Some f
let clear_observer h = h.observer <- None

let set_conflict_observer h f = h.conflict_observer <- Some f
let clear_conflict_observer h = h.conflict_observer <- None

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

(* A batch of records over [b_start]: each column it grows as a
   transient, read and written in place by [add_row] and published by
   [finish] as one state. *)
type batch = {
  b_start : state;
  b_records : record Dense.transient;
  b_links : links Dense.transient;
  b_vparent : Store.iid Dense.transient;
  b_vchildren : Int_set.t Dense.transient;
  b_vorigin : Store.iid Dense.transient;
  b_vtrees : Version_set.t Dense.transient;
}

let batch st =
  { b_start = st; b_records = Dense.transient st.hs_records;
    b_links = Dense.transient st.hs_links;
    b_vparent = Dense.transient st.hs_vparent;
    b_vchildren = Dense.transient st.hs_vchildren;
    b_vorigin = Dense.transient st.hs_vorigin;
    b_vtrees = Dense.transient st.hs_vtrees }

let finish b =
  { b.b_start with
    hs_records = Dense.freeze b.b_records;
    hs_links = Dense.freeze b.b_links;
    hs_vparent = Dense.freeze b.b_vparent;
    hs_vchildren = Dense.freeze b.b_vchildren;
    hs_vorigin = Dense.freeze b.b_vorigin;
    hs_vtrees = Dense.freeze b.b_vtrees }

(* [cell] and its write, on a batch's column. *)
let t_cell column ~none iid =
  if iid >= 1 && iid <= Dense.t_length column then Dense.t_get column (iid - 1)
  else none

let t_file column ~none iid x = Dense.t_set ~fill:none column (iid - 1) x

(* Fold one edge [parent -> out] into the batch's version index.  [out]
   has just passed the one-producer check, so it has no parent yet; it
   joins the parent's tree, bringing along the successors earlier
   records may already have given it (then [out] heads a tree of its
   own, whose members move over to the parent's origin). *)
let add_version_edge b ((out, out_at), (p, p_at)) =
  let no_tree = Version_set.empty in
  let origin =
    match t_cell b.b_vorigin ~none:0 p with
    | 0 ->
      t_file b.b_vorigin ~none:0 p p;
      t_file b.b_vtrees ~none:no_tree p (Version_set.singleton (p_at, p));
      p
    | o -> o
  in
  let tree = t_cell b.b_vtrees ~none:no_tree origin in
  let tree =
    match t_cell b.b_vorigin ~none:0 out with
    | 0 ->
      t_file b.b_vorigin ~none:0 out origin;
      Version_set.add (out_at, out) tree
    | o ->
      let sub = t_cell b.b_vtrees ~none:no_tree o in
      Version_set.iter (fun (_, v) -> t_file b.b_vorigin ~none:0 v origin) sub;
      t_file b.b_vtrees ~none:no_tree o no_tree;
      Version_set.union tree sub
  in
  t_file b.b_vtrees ~none:no_tree origin tree;
  t_file b.b_vparent ~none:0 out p;
  t_file b.b_vchildren ~none:Int_set.empty p
    (Int_set.add out (t_cell b.b_vchildren ~none:Int_set.empty p))

(* ------------------------------------------------------------------ *)
(* The construction rules, checked once per record                     *)
(* ------------------------------------------------------------------ *)

(* The functional dependency of a construction rule, if it has one. *)
let functional_of = function
  | Schema.Constructed deps ->
    List.find_opt (fun (d : Schema.dep) -> d.dep_kind = Schema.Functional) deps
  | Schema.Abstract _ | Schema.Source -> None

(* What a trace needs of [entity]'s construction rule: [None] for a
   source, which declares no construction roles (the engine records a
   batch merge's parts as [part0], [part1], ...), else the rule and its
   functional dependency. *)
let trace_rule schema entity =
  match Schema.construction_rule schema entity with
  | Schema.Source -> None
  | rule -> Some (rule, functional_of rule)

(* The rule a flow trace follows below an instance of [entity] that
   [r] produced, as [rule_of] (a [trace_rule] lookup) gives it, or
   [None] when the instance is a leaf of the trace: a source's, and a
   decomposition's parts, which come out of the composite by no task
   of the schema.  The one predicate [add] and both trace routes
   share. *)
let walked_rule rule_of entity r =
  match (r.tool, r.inputs) with
  | None, [ ("composite", _) ] -> None
  | _ -> rule_of entity

(* Refuse a record the trace of one of its outputs would reject: per
   output the trace walks below, the checks [Task_graph.connect]
   applies to each edge, with its exceptions and messages (the output's
   iid stands where the graph names a node).  The tool fills the
   functional role, if the rule has one; every input fills a declared
   role with a subtype of its target, and no role is filled twice. *)
let check_rules store schema r =
  let module G = Ddf_graph.Task_graph in
  List.iter
    (fun (_, out) ->
      let entity = Store.Snapshot.entity_of store out in
      match walked_rule (trace_rule schema) entity r with
      | None -> ()
      | Some (rule, functional) ->
        let edge filled (role, dep) =
          let decl = G.declared_dep ~entity rule role in
          let dep_entity = Store.Snapshot.entity_of store dep in
          if not (G.dep_fits schema decl ~dep_entity) then
            raise (G.ill_typed ~user_entity:entity decl ~dep_entity);
          if List.mem role filled then raise (G.filled_twice role out);
          role :: filled
        in
        let filled =
          match (r.tool, functional) with
          | Some tool, Some d -> edge [] (d.Schema.role, tool)
          | (Some _ | None), _ -> []
        in
        ignore (List.fold_left edge filled r.inputs))
    r.outputs

(* Would [r] close a cycle?  It would when its tool or an input is one
   of its outputs, or is reachable forward from one through the records
   using it, as [links_of] gives them.  An output is usually fresh,
   used by no record yet, so this is one lookup per output. *)
let closes_cycle links_of r =
  let deps = Option.to_list r.tool @ List.map snd r.inputs in
  let seen = ref Int_set.empty in
  let rec reaches iid =
    List.mem iid deps
    || (not (Int_set.mem iid !seen))
       && begin
         seen := Int_set.add iid !seen;
         List.exists
           (fun u -> List.exists (fun (_, out) -> reaches out) u.outputs)
           (links_of iid).users
       end
  in
  List.exists (fun (_, out) -> reaches out) r.outputs

(* Every instance a record names must be installed: the links column
   grows to the largest iid it is given. *)
let check_installed store r =
  let installed iid =
    if not (Store.Snapshot.mem store iid) then
      history_errorf ~code:`Not_found "no instance %d" iid
  in
  Option.iter installed r.tool;
  List.iter (fun (_, iid) -> installed iid) r.inputs;
  List.iter (fun (_, iid) -> installed iid) r.outputs

(* The one add step: check a record against the store, the schema and
   the records before it in [b] (the batch's, then its start state's),
   and file it into [b]. *)
let add_row b store schema ~task_entity ~tool ~inputs ~outputs ~at =
  if outputs = [] then history_errorf "a record needs at least one output";
  let r =
    { rid = Dense.t_length b.b_records + 1; task_entity; tool; inputs; outputs; at }
  in
  check_installed store r;
  check_rules store schema r;
  let edges = version_edges store schema ~inputs ~outputs in
  let links_of = t_cell b.b_links ~none:no_links in
  let file iid change = t_file b.b_links ~none:no_links iid (change (links_of iid)) in
  List.iter
    (fun (_, iid) ->
      file iid (fun l ->
          if l.producer <> None then
            history_errorf ~code:`Conflict
              "instance %d already has a producing record" iid;
          { l with producer = Some r }))
    outputs;
  if closes_cycle links_of r then raise Ddf_graph.Task_graph.cycle;
  let note_use iid = file iid (fun l -> { l with users = r :: l.users }) in
  List.iter (fun (_, iid) -> note_use iid) inputs;
  Option.iter note_use tool;
  Dense.t_push b.b_records r;
  List.iter (add_version_edge b) edges;
  r

(* The history has one writer, so the state a batch started from is
   still the live one when it is published. *)
let add_many h store schema f =
  let st = Atomic.get h.state in
  let b = batch st in
  let added = ref [] in
  let result =
    f (fun ~task_entity ~tool ~inputs ~outputs ~at ->
        let r = add_row b store schema ~task_entity ~tool ~inputs ~outputs ~at in
        added := r :: !added;
        r)
  in
  if not (Atomic.compare_and_set h.state st (finish b)) then
    history_errorf ~code:`Internal "a batch of records raced another writer";
  List.iter
    (fun r ->
      Ddf_obs.Metrics.incr m_appends;
      match h.observer with None -> () | Some f -> f r)
    (List.rev !added);
  result

let add h store schema ~task_entity ~tool ~inputs ~outputs ~at =
  add_many h store schema (fun add -> add ~task_entity ~tool ~inputs ~outputs ~at)

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

type version_tree = {
  v_iid : Store.iid;
  v_children : version_tree list;
}

let rec version_tree_size t =
  1 + List.fold_left (fun acc c -> acc + version_tree_size c) 0 t.v_children

(* Every read is defined once, here: pure over a [state] (plus, for
   store-joined queries, a [Store.Snapshot.t] and a schema). *)
module Snapshot = struct
  type t = snapshot

  let size st = Dense.length st.hs_records
  let tick st = size st + 1

  let find st rid =
    if rid >= 1 && rid <= Dense.length st.hs_records then
      Dense.get st.hs_records (rid - 1)
    else history_errorf ~code:`Not_found "no record %d" rid

  let records st =
    List.rev (Dense.fold (fun acc r -> r :: acc) [] st.hs_records)

  let find_conflict st cid =
    match Int_map.find_opt cid st.hs_conflicts with
    | Some c -> c
    | None -> history_errorf ~code:`Not_found "no conflict %d" cid

  (* Unordered-pair lookup: the two sides of a sync each record the same
     divergence with [ours]/[theirs] swapped, so dedup ignores the
     orientation. *)
  let find_conflict_pair st a b =
    let key x = (min x.c_ours x.c_theirs, max x.c_ours x.c_theirs) in
    let want = (min a b, max a b) in
    Int_map.fold
      (fun _ c acc -> if acc = None && key c = want then Some c else acc)
      st.hs_conflicts None

  let all_conflicts st = List.map snd (Int_map.bindings st.hs_conflicts)

  let conflicts st =
    List.filter (fun c -> c.c_winner = None) (all_conflicts st)

  (* The record that created an instance; None for instances installed
     directly by the designer (sources). *)
  let derivation_of st iid = (links st iid).producer
  let uses_of st iid = List.rev (links st iid).users

  (* The oldest record running [tool] on [inputs] (role-bound, in any
     order) and producing every entity of [out_entities]: the memo
     lookup.  Such a record uses the tool and every input, so it is in
     each of their users lists; walk the shortest, newest first, keeping
     the last match.  Picking it costs the shortest list's length. *)
  let find_derivation st ~tool ~inputs ~out_entities =
    let shorter best iid =
      let users = (links st iid).users in
      match best with
      | Some b when List.compare_lengths b users <= 0 -> best
      | _ -> Some users
    in
    let probed = Option.fold ~none:None ~some:(shorter None) tool in
    match
      List.fold_left (fun best (_, iid) -> shorter best iid) probed inputs
    with
    | None -> None
    | Some users ->
      let inputs = List.sort compare inputs in
      let matches r =
        r.tool = tool
        && List.sort compare r.inputs = inputs
        && List.for_all (fun e -> List.mem_assoc e r.outputs) out_entities
      in
      List.fold_left
        (fun found r -> if matches r then Some r else found)
        None users

  (* The walks' scratch: [marks.(id) = stamp] says id was met by the walk
     holding stamp [stamp], and the trace keeps an iid's node number in
     [nids].  A walk takes a fresh stamp instead of clearing the arrays,
     so marking is one array write and no walk allocates a table.  One
     spare is shared by every domain and thread, like the trace buffer
     below: a walk takes it (or makes its own while another walk holds
     it) and puts it back when done, so no two walks ever share one. *)
  type scratch = {
    mutable stamp : int;
    mutable marks : int array;
    mutable nids : int array;
  }

  let spare_scratch = Atomic.make None

  (* A scratch whose arrays take ids below [n]. *)
  let take_scratch n =
    let s =
      match Atomic.exchange spare_scratch None with
      | Some s -> s
      | None -> { stamp = 0; marks = [||]; nids = [||] }
    in
    if Array.length s.marks < n then begin
      let n = max n (Array.length s.marks * 3 / 2) in
      s.marks <- Array.make n 0;
      s.nids <- Array.make n 0
    end;
    s.stamp <- s.stamp + 1;
    s

  let give_scratch s = Atomic.set spare_scratch (Some s)

  (* Backward chaining: every record in the derivation history of an
     instance, nearest first. *)
  let backward_closure st iid =
    let s = take_scratch (Dense.length st.hs_records + 1) in
    let marks = s.marks and stamp = s.stamp in
    let acc = ref [] and met = ref 0 in
    let rec go iid =
      match (links st iid).producer with
      | None -> ()
      | Some r ->
        if marks.(r.rid) <> stamp then begin
          marks.(r.rid) <- stamp;
          incr met;
          acc := r :: !acc;
          List.iter (fun (_, i) -> go i) r.inputs;
          Option.iter go r.tool
        end
    in
    go iid;
    give_scratch s;
    Ddf_obs.Metrics.observe h_backward (float_of_int !met);
    List.rev !acc

  (* Forward chaining as a fold: [f] sees every record that transitively
     depends on an instance once, in preorder, oldest use first.  A users
     list is newest first: [uses] reaches its oldest end before folding
     any record, so the list is walked as it is, never reversed. *)
  let fold_forward st iid f init =
    let s = take_scratch (Dense.length st.hs_records + 1) in
    let marks = s.marks and stamp = s.stamp in
    let met = ref 0 in
    let rec go acc iid = uses acc (links st iid).users
    and uses acc = function
      | [] -> acc
      | r :: older ->
        let acc = uses acc older in
        if marks.(r.rid) = stamp then acc
        else begin
          marks.(r.rid) <- stamp;
          incr met;
          outputs (f acc r) r.outputs
        end
    and outputs acc = function
      | [] -> acc
      | (_, out) :: rest -> outputs (go acc out) rest
    in
    let acc = go init iid in
    give_scratch s;
    Ddf_obs.Metrics.observe h_forward (float_of_int !met);
    acc

  (* Every record that transitively depends on an instance -- e.g. all
     the performances derived from a netlist. *)
  let forward_closure st iid =
    List.rev (fold_forward st iid (fun acc r -> r :: acc) [])

  (* An instance has one producer and the fold meets each record once,
     so the outputs it collects are distinct.  Along an edit chain they
     arrive ascending, so the list is descending and a reversal sorts it. *)
  let derived_instances st iid =
    let outs =
      fold_forward st iid
        (fun acc r ->
          List.fold_left (fun acc (_, out) -> out :: acc) acc r.outputs)
        []
    in
    let rec descending = function
      | a :: (b :: _ as l) -> a > b && descending l
      | _ -> true
    in
    if descending outs then List.rev outs else List.sort Int.compare outs

  let ancestor_instances st iid =
    backward_closure st iid
    |> List.concat_map (fun r ->
           (match r.tool with Some t -> [ t ] | None -> [])
           @ List.map snd r.inputs)
    |> List.sort_uniq compare

  (* ------------------------------------------------------------------ *)
  (* Flow traces (Fig. 11(b))                                            *)
  (* ------------------------------------------------------------------ *)

  module String_tbl = Hashtbl.Make (String)

  (* The one walk behind both trace routes: preorder over an instance's
     derivation, numbering nodes in visit order (tool first, then inputs
     in record order) and stopping where [walked_rule] says the trace
     has a leaf.  [f] sees each line of the Fig. 11(b) tree: its depth,
     the edge by which it hangs below node [user] (tag and role, unused
     at depth 0), and node [nid] of [entity] bound to [iid], [shared]
     when seen before.  It checks nothing: [add] admitted every record it
     reads.  It asks the schema for an entity's rule once per walk, not
     once per node, and binds nodes in a scratch indexed by iid (sized
     to the store: the entity read checks each iid is installed before
     it indexes).  Returns the node count. *)
  let walk_trace st store schema iid f =
    let module G = Ddf_graph.Task_graph in
    let rules = String_tbl.create 8 in
    let rule_of entity =
      match String_tbl.find rules entity with
      | rule -> rule
      | exception Not_found ->
        let rule = trace_rule schema entity in
        String_tbl.add rules entity rule;
        rule
    in
    let s = take_scratch (Store.Snapshot.tick store) in
    let marks = s.marks and nids = s.nids and stamp = s.stamp in
    let count = ref 0 in
    let rec visit depth tag role user iid =
      let entity = Store.Snapshot.entity_of store iid in
      if marks.(iid) = stamp then
        f ~depth ~tag ~role ~user ~entity ~nid:nids.(iid) ~iid ~shared:true
      else begin
        let nid = !count in
        incr count;
        marks.(iid) <- stamp;
        nids.(iid) <- nid;
        f ~depth ~tag ~role ~user ~entity ~nid ~iid ~shared:false;
        match (links st iid).producer with
        | None -> ()
        | Some r -> (
          match walked_rule rule_of entity r with
          | None -> ()
          | Some (rule, functional) ->
            let depth = depth + 1 in
            (match (r.tool, functional) with
            | Some tool, Some d ->
              visit depth (G.dep_tag Schema.Functional) d.Schema.role nid tool
            | (Some _ | None), _ -> ());
            inputs depth nid entity rule r.inputs)
      end
    and inputs depth user entity rule = function
      | [] -> ()
      | (role, input) :: rest ->
        let decl = G.declared_dep ~entity rule role in
        visit depth (G.dep_tag decl.Schema.dep_kind) role user input;
        inputs depth user entity rule rest
    in
    visit 0 "" "" 0 iid;
    give_scratch s;
    !count

  (* The derivation history of an instance as a task graph with an
     instance binding: the same form queries and re-execution use.  The
     parts come from records [add] checked, so they make a valid task
     graph as they are. *)
  let trace st store schema iid =
    let nodes = ref [] and edges = ref [] and binding = ref [] in
    ignore
      (walk_trace st store schema iid
         (fun ~depth ~tag:_ ~role ~user ~entity ~nid ~iid ~shared ->
           if not shared then begin
             nodes := (nid, entity) :: !nodes;
             binding := (nid, iid) :: !binding
           end;
           if depth > 0 then edges := (user, role, nid) :: !edges));
    let g =
      Ddf_graph.Task_graph.of_parts schema (List.rev !nodes) (List.rev !edges)
    in
    (g, 0, List.rev !binding)

  (* One spare render buffer, shared by every domain and thread: a trace
     takes it (or makes a fresh one while another trace holds it) and
     hands it back when done.  A long derivation's trace runs to tens of
     KiB (every line past [Task_graph.max_indent] levels is about 70
     bytes); growing a fresh buffer to that by doubling would allocate it
     about twice over, and sizing each fresh buffer from the last text
     would make a short trace after a deep one allocate the deep one's
     size.  With the spare, a trace allocates its text once and a short
     one allocates no large buffer. *)
  let spare_trace_buffer = Atomic.make None

  let take_trace_buffer () =
    match Atomic.exchange spare_trace_buffer None with
    | Some buf -> Buffer.clear buf; buf
    | None -> Buffer.create 4096

  (* The text [Wire.Trace] answers: [Task_graph.to_ascii] of [trace]'s
     graph and a line counting its instances, rendered line by line by
     the same walk into one buffer, without assembling the graph. *)
  let trace_text st store schema iid =
    let buf = take_trace_buffer () in
    let count =
      walk_trace st store schema iid
        (fun ~depth ~tag ~role ~user:_ ~entity ~nid ~iid:_ ~shared ->
          Ddf_graph.Task_graph.add_ascii_line buf ~depth ~tag ~role ~entity ~nid
            ~shared)
    in
    Buffer.add_char buf '(';
    Buffer.add_string buf (string_of_int count);
    Buffer.add_string buf " instances in the derivation)\n";
    let text = Buffer.contents buf in
    Atomic.set spare_trace_buffer (Some buf);
    text

  (* ------------------------------------------------------------------ *)
  (* Query by template (section 4.2)                                     *)
  (* ------------------------------------------------------------------ *)

  (* Find bindings of a task graph's nodes to instances consistent with
     the history: bound nodes are fixed, the rest are solved for.  Used
     for queries like "find the simulations performed on this netlist"
     where the template is the flow itself. *)
  let query_template st store (g : Ddf_graph.Task_graph.t) ~bound =
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
              match derivation_of st user_iid with
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
      match derivation_of st user_iid with
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

  let version_parent st iid =
    match cell st.hs_vparent ~none:0 iid with 0 -> None | p -> Some p

  (* Direct edit successors: the alternative versions branching off an
     instance.  More than one child — siblings — is exactly the shape an
     anti-entropy merge of divergent workspaces produces. *)
  let version_children st iid =
    Int_set.elements (cell st.hs_vchildren ~none:Int_set.empty iid)

  (* The version tree rooted at an instance, following edit successors. *)
  let version_tree st iid =
    let rec build iid =
      { v_iid = iid; v_children = List.map build (version_children st iid) }
    in
    build iid

  let tree_of st iid =
    match cell st.hs_vorigin ~none:0 iid with
    | 0 -> None
    | o -> Some (cell st.hs_vtrees ~none:Version_set.empty o)

  (* All versions (the instances in the version tree), ascending by iid. *)
  let versions st iid =
    match tree_of st iid with
    | None -> [ iid ]
    | Some tree ->
      Version_set.fold (fun (_, v) acc -> v :: acc) tree []
      |> List.sort Int.compare

  (* The newest instance in the version tree by creation time (ties go
     to the higher iid); the instance itself when it has no versions. *)
  let latest_version st iid =
    match tree_of st iid with
    | None -> iid
    | Some tree -> snd (Version_set.max_elt tree)

  (* ------------------------------------------------------------------ *)
  (* Consistency (out-of-date analysis)                                  *)
  (* ------------------------------------------------------------------ *)

  (* An instance is out of date when some input of its derivation has a
     newer version: e.g. the layout was edited after this netlist was
     extracted from it.  Returns the stale (input, newer-version) pairs. *)
  let out_of_date st iid =
    match derivation_of st iid with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (role, input) ->
          match tree_of st input with
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

  let is_up_to_date st iid = out_of_date st iid = []
end

(* The live reads [perfbench/replay.ml] calls, kept for it until
   ROADMAP item 8 deletes the replay. *)
let versions h _ _ iid = Snapshot.versions (snapshot h) iid
let latest_version h _ _ iid = Snapshot.latest_version (snapshot h) iid
let out_of_date h _ _ iid = Snapshot.out_of_date (snapshot h) iid
let ancestor_instances h iid = Snapshot.ancestor_instances (snapshot h) iid

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
  let st = snapshot h in
  Fmt.pf ppf "@[<v>history: %d records@,%a@]" (Snapshot.size st)
    Fmt.(list ~sep:cut pp_record)
    (Snapshot.records st)
