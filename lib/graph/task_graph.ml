(* Task graphs: the representation of dynamically defined flows
   (paper section 3.2).

   A task graph is a DAG whose nodes each correspond to an entity of a
   task schema and whose edges each correspond to a dependency of the
   entity's construction rule.  Tools are nodes like any other -- "we
   are treating the tool as just another parameter".  The graph is a
   persistent value: expand / specialize / unexpand return new graphs,
   which keeps designer-driven trial and error (and undo) cheap. *)

open Ddf_schema

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type edge = {
  role : string;
  dep_kind : Schema.dep_kind;
  dst : int;
}

type node = {
  nid : int;
  entity : string;
}

type t = {
  schema : Schema.t;
  nodes : node Int_map.t;
  out_edges : edge list Int_map.t;   (* node -> its dependencies *)
  in_edges : (int * string) list Int_map.t;  (* node -> (user, role) *)
  next_id : int;
}

exception Graph_error of string
exception Needs_specialization of string * string list

let graph_errorf fmt = Format.kasprintf (fun s -> raise (Graph_error s)) fmt
let cycle = Graph_error "task graph contains a cycle"

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let empty schema =
  { schema; nodes = Int_map.empty; out_edges = Int_map.empty;
    in_edges = Int_map.empty; next_id = 0 }

let schema g = g.schema
let mem g nid = Int_map.mem nid g.nodes

let find g nid =
  match Int_map.find_opt nid g.nodes with
  | Some n -> n
  | None -> graph_errorf "no node %d in task graph" nid

let entity_of g nid = (find g nid).entity
let nodes g = List.map snd (Int_map.bindings g.nodes)
let node_ids g = List.map fst (Int_map.bindings g.nodes)
let size g = Int_map.cardinal g.nodes

let out_edges g nid =
  ignore (find g nid);
  match Int_map.find_opt nid g.out_edges with Some es -> List.rev es | None -> []

let in_edges g nid =
  ignore (find g nid);
  match Int_map.find_opt nid g.in_edges with Some es -> List.rev es | None -> []

let dep_of g nid role =
  List.find_opt (fun e -> e.role = role) (out_edges g nid)
  |> Option.map (fun e -> e.dst)

let users g nid = List.map fst (in_edges g nid)

let roots g =
  List.filter (fun n -> in_edges g n.nid = []) (nodes g) |> List.map (fun n -> n.nid)

let leaves g =
  List.filter (fun n -> out_edges g n.nid = []) (nodes g) |> List.map (fun n -> n.nid)

let add_node g entity =
  ignore (Schema.find g.schema entity);
  let nid = g.next_id in
  let node = { nid; entity } in
  ( { g with nodes = Int_map.add nid node g.nodes; next_id = nid + 1 }, nid )

let create schema entity =
  let g, nid = add_node (empty schema) entity in
  (g, nid)

(* ------------------------------------------------------------------ *)
(* Reachability and ordering                                           *)
(* ------------------------------------------------------------------ *)

let reachable g start =
  let rec go seen = function
    | [] -> seen
    | nid :: rest ->
      if Int_set.mem nid seen then go seen rest
      else
        let succs = List.map (fun e -> e.dst) (out_edges g nid) in
        go (Int_set.add nid seen) (succs @ rest)
  in
  go Int_set.empty [ start ]

let disjoint g a b =
  Int_set.is_empty (Int_set.inter (reachable g a) (reachable g b))

(* Dependencies-first order; ties broken by node id for determinism. *)
let topological_order g =
  let out_degree = Hashtbl.create (size g) in
  List.iter
    (fun n -> Hashtbl.replace out_degree n.nid (List.length (out_edges g n.nid)))
    (nodes g);
  let module Pq = Set.Make (Int) in
  let ready =
    List.fold_left
      (fun acc n ->
        if Hashtbl.find out_degree n.nid = 0 then Pq.add n.nid acc else acc)
      Pq.empty (nodes g)
  in
  let rec drain ready acc =
    match Pq.min_elt_opt ready with
    | None -> List.rev acc
    | Some nid ->
      let ready = Pq.remove nid ready in
      let ready =
        List.fold_left
          (fun ready (user, _role) ->
            let d = Hashtbl.find out_degree user - 1 in
            Hashtbl.replace out_degree user d;
            if d = 0 then Pq.add user ready else ready)
          ready (in_edges g nid)
      in
      drain ready (nid :: acc)
  in
  let order = drain ready [] in
  if List.length order <> size g then raise cycle else order

(* ------------------------------------------------------------------ *)
(* Construction operations                                             *)
(* ------------------------------------------------------------------ *)

let rule_of g nid =
  let entity = entity_of g nid in
  match Schema.construction_rule g.schema entity with
  | Schema.Abstract subs -> raise (Needs_specialization (entity, subs))
  | (Schema.Constructed _ | Schema.Source) as r -> r

let rec dep_of_role role = function
  | (d : Schema.dep) :: deps ->
    if String.equal d.role role then d else dep_of_role role deps
  | [] -> raise Not_found

(* The declaration of [role] in the construction rule of [entity].
   This and the checks below are what every edge passes in [connect];
   the history applies them to each record it admits, so a trace
   needs no check of its own. *)
let declared_dep ~entity rule role =
  match (rule : Schema.rule) with
  | Schema.Abstract subs -> raise (Needs_specialization (entity, subs))
  | Schema.Source ->
    graph_errorf "entity %s is a source and has no dependencies" entity
  | Schema.Constructed deps -> (
    match dep_of_role role deps with
    | d -> d
    | exception Not_found ->
      graph_errorf "entity %s has no dependency role %S" entity role)

let dep_fits schema (decl : Schema.dep) ~dep_entity =
  Schema.is_subtype schema ~sub:dep_entity ~super:decl.target

let ill_typed ~user_entity (decl : Schema.dep) ~dep_entity =
  Graph_error
    (Printf.sprintf "role %S of %s requires %s, not %s" decl.role user_entity
       decl.target dep_entity)

let filled_twice role nid =
  Graph_error (Printf.sprintf "role %S of node %d is already filled" role nid)

let find_role g nid role =
  let entity = entity_of g nid in
  declared_dep ~entity (Schema.construction_rule g.schema entity) role

let add_edge g ~user ~role dep_kind ~dep =
  let edge = { role; dep_kind; dst = dep } in
  let outs = match Int_map.find_opt user g.out_edges with
    | Some es -> es | None -> [] in
  let ins = match Int_map.find_opt dep g.in_edges with
    | Some es -> es | None -> [] in
  { g with
    out_edges = Int_map.add user (edge :: outs) g.out_edges;
    in_edges = Int_map.add dep ((user, role) :: ins) g.in_edges }

(* Bulk construction: all nodes and edges at once, with no rule check:
   the parts are a flow trace, whose every edge the history checked
   when it admitted the record, so deep traces assemble in near-linear
   time.  [validate] is the full check. *)
let of_parts schema node_list edge_list =
  let g =
    List.fold_left
      (fun g (nid, entity) ->
        if Int_map.mem nid g.nodes then
          graph_errorf "duplicate node id %d" nid;
        { g with
          nodes = Int_map.add nid { nid; entity } g.nodes;
          next_id = max g.next_id (nid + 1) })
      (empty schema) node_list
  in
  List.fold_left
    (fun g (user, role, dep) ->
      if not (mem g user) then graph_errorf "edge from missing node %d" user;
      if not (mem g dep) then graph_errorf "edge to missing node %d" dep;
      add_edge g ~user ~role (find_role g user role).dep_kind ~dep)
    g edge_list

let connect g ~user ~role ~dep =
  let decl = find_role g user role in
  let dep_entity = entity_of g dep in
  if not (dep_fits g.schema decl ~dep_entity) then
    raise (ill_typed ~user_entity:(entity_of g user) decl ~dep_entity);
  if dep_of g user role <> None then raise (filled_twice role user);
  if Int_set.mem user (reachable g dep) then
    graph_errorf "connecting %d -%s-> %d would create a cycle" user role dep;
  add_edge g ~user ~role decl.dep_kind ~dep

let specialize g nid subtype =
  let current = entity_of g nid in
  if subtype = current then g
  else begin
    if not (Schema.is_subtype g.schema ~sub:subtype ~super:current) then
      graph_errorf "%s is not a subtype of %s" subtype current;
    (* Existing dependency edges must remain legal under the new rule. *)
    let new_deps = Schema.effective_deps g.schema subtype in
    let check (e : edge) =
      match List.find_opt (fun (d : Schema.dep) -> d.role = e.role) new_deps with
      | None ->
        graph_errorf "specializing to %s drops filled role %S" subtype e.role
      | Some d ->
        let dep_entity = entity_of g e.dst in
        if not (Schema.is_subtype g.schema ~sub:dep_entity ~super:d.target) then
          graph_errorf "specializing to %s: role %S no longer accepts %s"
            subtype e.role dep_entity
    in
    List.iter check (out_edges g nid);
    let node = { (find g nid) with entity = subtype } in
    { g with nodes = Int_map.add nid node g.nodes }
  end

(* Downward expansion: incorporate the primitive task constructing
   [nid], creating fresh nodes for unfilled roles, or reusing nodes the
   designer designates (entity reuse, Fig. 5). *)
let expand ?(include_optional = true) ?(reuse = []) g nid =
  match rule_of g nid with
  | Schema.Abstract _ -> assert false (* rule_of raised *)
  | Schema.Source ->
    graph_errorf "cannot expand %s: it is a source entity" (entity_of g nid)
  | Schema.Constructed deps ->
    let wanted (d : Schema.dep) =
      dep_of g nid d.role = None
      && (include_optional
          ||
          match d.dep_kind with
          | Schema.Functional | Schema.Data_dep { optional = false } -> true
          | Schema.Data_dep { optional = true } -> false)
    in
    let step (g, fresh) (d : Schema.dep) =
      match List.assoc_opt d.role reuse with
      | Some existing -> (connect g ~user:nid ~role:d.role ~dep:existing, fresh)
      | None ->
        let g, new_nid = add_node g d.target in
        (connect g ~user:nid ~role:d.role ~dep:new_nid, new_nid :: fresh)
    in
    let g, fresh = List.fold_left step (g, []) (List.filter wanted deps) in
    (g, List.rev fresh)

(* Upward expansion: incorporate a task that consumes [nid].  The
   consumer node is created and its remaining dependencies expanded, so
   the flow always grows by whole primitive tasks. *)
let expand_up ?role ?(include_optional = true) ?(reuse = []) g nid ~consumer =
  let entity = entity_of g nid in
  let candidates =
    List.filter
      (fun (cid, (_ : Schema.dep)) -> cid = consumer)
      (Schema.consuming_roles g.schema entity)
  in
  let chosen =
    match (role, candidates) with
    | _, [] ->
      graph_errorf "%s does not consume %s" consumer entity
    | None, [ (_, d) ] -> d
    | None, _ ->
      graph_errorf "%s consumes %s through several roles; pick one" consumer
        entity
    | Some r, _ -> (
      match
        List.find_opt (fun (_, (d : Schema.dep)) -> d.role = r) candidates
      with
      | Some (_, d) -> d
      | None -> graph_errorf "%s has no role %S accepting %s" consumer r entity)
  in
  let g, cnid = add_node g consumer in
  let g = connect g ~user:cnid ~role:chosen.role ~dep:nid in
  let g, fresh = expand ~include_optional ~reuse g cnid in
  (g, cnid, fresh)

(* Remove the sub-flow below [nid]: cut its dependency edges, then drop
   every node no longer reachable from the graph's previous roots. *)
let unexpand g nid =
  let anchors = roots g in
  let anchors = if List.mem nid anchors then anchors else nid :: anchors in
  let cut =
    let outs = out_edges g nid in
    let in_edges =
      List.fold_left
        (fun acc (e : edge) ->
          let ins = match Int_map.find_opt e.dst acc with
            | Some es -> es | None -> [] in
          Int_map.add e.dst
            (List.filter (fun (u, r) -> not (u = nid && r = e.role)) ins)
            acc)
        g.in_edges outs
    in
    { g with out_edges = Int_map.remove nid g.out_edges; in_edges }
  in
  let live =
    List.fold_left
      (fun acc a -> Int_set.union acc (reachable cut a))
      Int_set.empty anchors
  in
  let keep nid _ = Int_set.mem nid live in
  { cut with
    nodes = Int_map.filter keep cut.nodes;
    out_edges = Int_map.filter keep cut.out_edges;
    in_edges =
      Int_map.filter keep cut.in_edges
      |> Int_map.map (List.filter (fun (u, _) -> Int_set.mem u live)) }

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

type status =
  | Source_leaf        (* no construction rule: select an instance *)
  | Unexpanded         (* constructible, nothing filled yet *)
  | Partial of string list  (* mandatory roles still unfilled *)
  | Expanded           (* all mandatory roles filled *)

let status g nid =
  match Schema.construction_rule g.schema (entity_of g nid) with
  | Schema.Source -> Source_leaf
  | Schema.Abstract _ -> Unexpanded
  | Schema.Constructed deps ->
    let filled = List.map (fun e -> e.role) (out_edges g nid) in
    let missing =
      List.filter_map
        (fun (d : Schema.dep) ->
          match d.dep_kind with
          | Schema.Data_dep { optional = true } -> None
          | Schema.Functional | Schema.Data_dep { optional = false } ->
            if List.mem d.role filled then None else Some d.role)
        deps
    in
    if filled = [] then Unexpanded
    else if missing <> [] then Partial missing
    else Expanded

(* A flow is complete when every node is either a filled task or a leaf
   awaiting instance selection. *)
let complete g =
  List.for_all
    (fun n ->
      match status g n.nid with
      | Source_leaf | Expanded -> true
      | Unexpanded -> out_edges g n.nid = [] (* leaf: instance selectable *)
      | Partial _ -> false)
    (nodes g)

(* ------------------------------------------------------------------ *)
(* Invocations: grouping co-produced outputs                           *)
(* ------------------------------------------------------------------ *)

type invocation = {
  outputs : int list;
  tool : int option;             (* None for composite entities *)
  inputs : (string * int) list;  (* data-dependency bindings *)
}

(* Derived nodes sharing the same tool node and the same data-input
   nodes belong to a single task invocation (Fig. 5: the extractor
   produces the extracted netlist and its statistics in one run). *)
let invocations g =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let classify n =
    let outs = out_edges g n.nid in
    if outs = [] then ()
    else begin
      let tool =
        List.find_opt (fun e -> e.dep_kind = Schema.Functional) outs
        |> Option.map (fun e -> e.dst)
      in
      let inputs =
        List.filter (fun e -> e.dep_kind <> Schema.Functional) outs
        |> List.map (fun e -> (e.role, e.dst))
      in
      let key = (tool, List.sort compare (List.map snd inputs)) in
      match Hashtbl.find_opt tbl key with
      | Some inv -> Hashtbl.replace tbl key { inv with outputs = n.nid :: inv.outputs }
      | None ->
        order := key :: !order;
        Hashtbl.add tbl key { outputs = [ n.nid ]; tool; inputs }
    end
  in
  List.iter classify (nodes g);
  List.rev_map
    (fun key ->
      let inv = Hashtbl.find tbl key in
      { inv with outputs = List.sort compare inv.outputs })
    !order

(* Invocation-level dependency DAG: A precedes B when one of A's
   outputs is an input (or the tool) of B. *)
let invocation_deps invocations =
  let producer = Hashtbl.create 32 in
  List.iteri
    (fun i inv -> List.iter (fun o -> Hashtbl.replace producer o i) inv.outputs)
    invocations;
  List.map
    (fun inv ->
      Option.to_list inv.tool @ List.map snd inv.inputs
      |> List.filter_map (Hashtbl.find_opt producer)
      |> List.sort_uniq compare)
    invocations

(* ------------------------------------------------------------------ *)
(* Subflows                                                            *)
(* ------------------------------------------------------------------ *)

let subflow g nid =
  let live = reachable g nid in
  let keep n _ = Int_set.mem n live in
  { g with
    nodes = Int_map.filter keep g.nodes;
    out_edges = Int_map.filter keep g.out_edges;
    in_edges =
      Int_map.filter keep g.in_edges
      |> Int_map.map (List.filter (fun (u, _) -> Int_set.mem u live)) }

(* The independently executable branches below a root: maximal disjoint
   sub-flows, one per dependency subtree that shares nothing (Fig. 6). *)
let disjoint_branches g root =
  let children = List.map (fun e -> e.dst) (out_edges g root) in
  (* Fold each child's reachable set into the groups it overlaps. *)
  let absorb groups (c, s) =
    let overlaps (_, s') = not (Int_set.is_empty (Int_set.inter s s')) in
    let hit, miss = List.partition overlaps groups in
    let members = c :: List.concat_map fst hit in
    let s = List.fold_left (fun s (_, s') -> Int_set.union s s') s hit in
    (members, s) :: miss
  in
  List.map (fun c -> (c, reachable g c)) children
  |> List.fold_left absorb []
  |> List.rev_map (fun (members, s) -> (List.sort compare members, s))

(* ------------------------------------------------------------------ *)
(* Validation (every Engine.execute run, and the property tests)       *)
(* ------------------------------------------------------------------ *)

let validate g =
  ignore (topological_order g);
  let check_node n =
    ignore (Schema.find g.schema n.entity);
    let seen = Hashtbl.create 4 in
    let check_edge (e : edge) =
      if Hashtbl.mem seen e.role then
        graph_errorf "node %d fills role %S twice" n.nid e.role;
      Hashtbl.add seen e.role ();
      if not (mem g e.dst) then
        graph_errorf "node %d depends on missing node %d" n.nid e.dst;
      let decl =
        match
          List.find_opt
            (fun (d : Schema.dep) -> d.role = e.role)
            (Schema.effective_deps g.schema n.entity)
        with
        | Some d -> d
        | None ->
          graph_errorf "node %d (%s) fills undeclared role %S" n.nid n.entity
            e.role
      in
      if not
           (Schema.is_subtype g.schema ~sub:(entity_of g e.dst)
              ~super:decl.target)
      then
        graph_errorf "node %d role %S holds incompatible entity %s" n.nid
          e.role (entity_of g e.dst)
    in
    List.iter check_edge (out_edges g n.nid)
  in
  List.iter check_node (nodes g);
  (* in_edges must mirror out_edges *)
  List.iter
    (fun n ->
      List.iter
        (fun (e : edge) ->
          if not (List.mem (n.nid, e.role) (in_edges g e.dst)) then
            graph_errorf "in/out edge tables disagree at node %d" n.nid)
        (out_edges g n.nid))
    (nodes g)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Lines deeper than this are indented as deep as this and carry their
   depth instead, so a line's width no longer grows with the tree's
   depth: a 400-deep derivation costs O(lines) bytes, not O(depth^2). *)
let max_indent = 16

let indent = String.make (2 * max_indent) ' '

let dep_tag = function
  | Schema.Functional -> "f/"
  | Schema.Data_dep { optional = true } -> "d?/"
  | Schema.Data_dep { optional = false } -> "d/"

(* The decimal digits of [n], written into [buf] without the string
   [string_of_int] would format in C and allocate. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

(* One line of the Fig. 3(b) tree: two spaces per level (down to
   [max_indent] levels, then a [\[depth\] ] prefix), then the edge tag
   ([f/] functional, [d/] data, [d?/] optional data, and the role) when
   the node hangs below another, then [entity#nid], marked [(shared)]
   when the node was printed in full further up.  The only line
   renderer: [to_ascii] and the history's trace text both write through
   it. *)
let add_ascii_line buf ~depth ~tag ~role ~entity ~nid ~shared =
  if depth <= max_indent then Buffer.add_substring buf indent 0 (2 * depth)
  else begin
    Buffer.add_string buf indent;
    Buffer.add_char buf '[';
    add_int buf depth;
    Buffer.add_string buf "] "
  end;
  if depth > 0 then begin
    Buffer.add_string buf tag;
    Buffer.add_string buf role;
    Buffer.add_string buf ": "
  end;
  Buffer.add_string buf entity;
  Buffer.add_char buf '#';
  add_int buf nid;
  if shared then Buffer.add_string buf " (shared)";
  Buffer.add_char buf '\n'

(* Task-graph rendering in the style of Fig. 3(b): an indented tree
   from each root, with shared nodes printed once and referenced by id
   afterwards. *)
let to_ascii g =
  let buf = Buffer.create 256 in
  let printed = Hashtbl.create 16 in
  let rec render depth tag role nid =
    let shared = Hashtbl.mem printed nid in
    add_ascii_line buf ~depth ~tag ~role ~entity:(find g nid).entity ~nid
      ~shared;
    if not shared then begin
      Hashtbl.add printed nid ();
      List.iter
        (fun (e : edge) -> render (depth + 1) (dep_tag e.dep_kind) e.role e.dst)
        (out_edges g nid)
    end
  in
  List.iter (render 0 "" "") (roots g);
  Buffer.contents buf

let to_dot g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph flow {\n";
  List.iter
    (fun n ->
      let shape =
        match Schema.kind_of g.schema n.entity with
        | Schema.Tool -> "ellipse"
        | Schema.Design_data -> "box"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s#%d\",shape=%s];\n" n.nid n.entity
           n.nid shape))
    (nodes g);
  List.iter
    (fun n ->
      List.iter
        (fun (e : edge) ->
          let style =
            match e.dep_kind with
            | Schema.Functional -> "bold"
            | Schema.Data_dep { optional = true } -> "dashed"
            | Schema.Data_dep { optional = false } -> "solid"
          in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=%S,style=%s];\n" n.nid e.dst
               e.role style))
        (out_edges g n.nid))
    (nodes g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf g = Fmt.string ppf (to_ascii g)
