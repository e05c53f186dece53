(** Task graphs: dynamically defined flows (paper section 3.2).

    A task graph is a directed acyclic graph with each node
    corresponding to an entity in a task schema and each edge to a
    dependency.  Tool and data nodes are treated uniformly.  The value
    is persistent: every operation returns a new graph, so exploratory
    construction and undo are cheap. *)

open Ddf_schema

type edge = private {
  role : string;
  dep_kind : Schema.dep_kind;
  dst : int;
}

type node = private {
  nid : int;
  entity : string;
}

type t

exception Graph_error of string

exception Needs_specialization of string * string list
(** Raised when expanding a node whose entity has several construction
    methods: the designer must {!specialize} it first (Fig. 4(b)). *)

(** {1 Construction} *)

val empty : Schema.t -> t

val create : Schema.t -> string -> t * int
(** [create schema entity] starts a flow from a single node -- the
    goal-, tool- or data-based entry point all begin here. *)

val add_node : t -> string -> t * int

val of_parts : Schema.t -> (int * string) list -> (int * string * int) list -> t
(** [of_parts schema nodes edges] assembles a whole graph at once:
    nodes are [(id, entity)], edges [(user, role, dependency)].  It
    trusts its parts, a flow trace whose records the history checked
    when it admitted them: only duplicate node ids and edges to or from
    missing nodes are refused, so deep traces assemble in near-linear
    time.  {!validate} is the full check.
    @raise Graph_error on a duplicate id or a missing node. *)

val connect : t -> user:int -> role:string -> dep:int -> t
(** Fill role [role] of node [user] with node [dep].
    @raise Graph_error if the role is undeclared, already filled, the
    entities are incompatible, or a cycle would appear. *)

val specialize : t -> int -> string -> t
(** [specialize g n subtype] narrows node [n] to one of its entity's
    subtypes, selecting a construction method. *)

val expand : ?include_optional:bool -> ?reuse:(string * int) list -> t -> int -> t * int list
(** Downward expansion: incorporate the primitive task constructing the
    node.  Fresh nodes are created for unfilled roles, except those the
    designer [reuse]s (entity reuse, Fig. 5).  Returns the new graph and
    fresh node ids.  @raise Needs_specialization for abstract entities. *)

val expand_up :
  ?role:string -> ?include_optional:bool -> ?reuse:(string * int) list ->
  t -> int -> consumer:string -> t * int * int list
(** Upward expansion: incorporate a task that consumes the node.
    Returns graph, the consumer node id, and other fresh nodes. *)

val unexpand : t -> int -> t
(** Remove the sub-flow below a node (the inverse of {!expand}),
    keeping nodes still reachable elsewhere. *)

(** {1 Accessors} *)

val schema : t -> Schema.t
val mem : t -> int -> bool
val find : t -> int -> node
val entity_of : t -> int -> string
val nodes : t -> node list
val node_ids : t -> int list
val size : t -> int
val out_edges : t -> int -> edge list
val in_edges : t -> int -> (int * string) list
val dep_of : t -> int -> string -> int option
val users : t -> int -> int list
val roots : t -> int list
val leaves : t -> int list

(** {1 Analysis} *)

module Int_set : Set.S with type elt = int

val reachable : t -> int -> Int_set.t
val disjoint : t -> int -> int -> bool

val topological_order : t -> int list
(** Dependencies first. @raise Graph_error on a cycle. *)

type status =
  | Source_leaf
  | Unexpanded
  | Partial of string list
  | Expanded

val status : t -> int -> status

val complete : t -> bool
(** Every node is a filled task or a leaf awaiting instance selection:
    the flow may be instantiated and run. *)

type invocation = {
  outputs : int list;
  tool : int option;
  inputs : (string * int) list;
}

val invocations : t -> invocation list
(** Task invocations, grouping co-produced outputs: derived nodes that
    share one tool node and the same input nodes run as a single tool
    call (Fig. 5). Composite entities yield [tool = None]. *)

val invocation_deps : invocation list -> int list list
(** For each invocation of the list, the positions in the list of the
    invocations producing its tool or inputs, ascending. *)

val subflow : t -> int -> t
(** Induced sub-graph reachable from a node; node ids are preserved.
    A subflow may be run independently whenever its own dependencies
    are satisfied. *)

val disjoint_branches : t -> int -> (int list * Int_set.t) list
(** Partition of the dependency branches under a root into groups that
    share no node: each group can execute in parallel with the others
    (Fig. 6). *)

val validate : t -> unit
(** Recheck every invariant. @raise Graph_error when violated. *)

(** {1 Edge checks}

    The checks {!connect} applies to every edge, exposed for the
    history: [History.add] applies them to each record it admits, so
    it refuses a record with the error the record's graph would
    raise. *)

val declared_dep : entity:string -> Schema.rule -> string -> Schema.dep
(** [declared_dep ~entity rule role] is the declaration of [role] in
    [entity]'s construction [rule].
    @raise Graph_error when [rule] is a source's or lacks the role.
    @raise Needs_specialization when [rule] is abstract. *)

val dep_fits : Schema.t -> Schema.dep -> dep_entity:string -> bool
(** Whether [dep_entity] is a subtype of the declaration's target. *)

val ill_typed : user_entity:string -> Schema.dep -> dep_entity:string -> exn
(** The error for a role of [user_entity] filled with an entity that
    does not fit its declaration. *)

val filled_twice : string -> int -> exn
(** The error for a role filled twice on a node. *)

val cycle : exn
(** The error for a cyclic graph (or a record that would close a cycle
    in the history). *)

(** {1 Printing} *)

val max_indent : int
(** The depth (16) down to which {!add_ascii_line} indents. *)

val dep_tag : Schema.dep_kind -> string
(** The edge tag of a dependency kind: ["f/"] functional, ["d/"] data,
    ["d?/"] optional data. *)

val add_ascii_line :
  Buffer.t -> depth:int -> tag:string -> role:string -> entity:string ->
  nid:int -> shared:bool -> unit
(** One line of the {!to_ascii} tree: the indentation for [depth], the
    edge by which the node hangs below its user as [tag ^ role ^ ": "]
    (written for [depth > 0] only: a root has no edge, and [tag] and
    [role] are ignored), [entity#nid], and [" (shared)"] for a node
    already printed in full.  The indentation is two spaces per level
    down to {!max_indent}; a deeper line is indented [2 * max_indent]
    spaces and then carries its depth as ["[depth] "], e.g.
    ["<32 spaces>[417] d?/netlist: edited_netlist#834"].  Preorder plus
    each line's depth still defines the tree exactly, and no line is
    wider than [2 * max_indent] plus its depth's digits and its label.
    Numbers are written as [string_of_int] spells them, digit by digit
    into [buf], allocating nothing. *)

val to_ascii : t -> string
(** The Fig. 3(b) indented tree from each root, every line written by
    {!add_ascii_line} (so lines deeper than {!max_indent} carry a
    ["[depth] "] prefix). *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
