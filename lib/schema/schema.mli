(** Task schemas (paper section 3.1).

    A task schema is a graph whose nodes are design entities -- both
    tools and data are entities -- and whose arcs are dependencies.  It
    serves two purposes: it states the construction rules from which
    tasks (and hence dynamically defined flows) may be built, and it is
    the data schema of the design-history database. *)

(** Entities are either tools or design data; both are first-class, so
    tools may themselves be constructed during design (Fig. 2). *)
type kind =
  | Tool
  | Design_data

(** An entity has at most one functional dependency (the tool that
    realises its construction) and any number of data dependencies.
    Optional data dependencies (dashed arcs) break schema loops such as
    "an edited netlist depends on a netlist". *)
type dep_kind =
  | Functional
  | Data_dep of { optional : bool }

type dep = private {
  role : string;     (** unique within the entity, e.g. ["reference"] *)
  target : string;   (** entity id this dependency points at *)
  dep_kind : dep_kind;
}

type entity = private {
  id : string;
  kind : kind;
  parent : string option;  (** supertype, for subtyped construction *)
  deps : dep list;         (** construction rule; [[]] inherits/none *)
  description : string;
}

type t

exception Schema_error of string

(** {1 Building schemas} *)

val functional : ?role:string -> string -> dep
(** [functional target] is a functional dependency on tool entity
    [target].  Default role is ["tool"]. *)

val data : ?role:string -> ?optional:bool -> string -> dep
(** [data target] is a data dependency; the role defaults to the target
    entity id. *)

val entity :
  ?kind:kind -> ?parent:string -> ?description:string ->
  string -> dep list -> entity
(** [entity id deps] declares a design-data entity constructed from
    [deps].  An empty [deps] with a parent inherits the parent's rule;
    an empty [deps] without subtypes is a source entity. *)

val tool : ?parent:string -> ?description:string -> string -> dep list -> entity
(** [tool id deps] declares a tool entity.  A non-empty [deps] means the
    tool is created during design, as the compiled simulator of Fig. 2. *)

val create : string -> entity list -> t
(** [create name entities] builds and validates a schema.
    @raise Schema_error on duplicate ids, unknown dependency targets,
    several functional dependencies on one entity, functional
    dependencies on non-tools, subtype cycles, kind-changing subtyping,
    or dependency cycles not broken by an optional arc. *)

val add_entity : t -> entity -> t
(** Extend a schema with one entity and re-validate: incorporating a new
    tool requires no flow maintenance, only a schema extension. *)

val remove_entity : t -> string -> t

val validate : t -> unit
(** Re-check all invariants. @raise Schema_error when violated. *)

(** {1 Accessors} *)

val name : t -> string
val mem : t -> string -> bool
val find : t -> string -> entity
val find_opt : t -> string -> entity option
val entities : t -> entity list
val entity_ids : t -> string list
val size : t -> int
val kind_of : t -> string -> kind
val is_tool : t -> string -> bool

(** {1 Subtyping} *)

val parent_of : t -> string -> string option
val ancestors : t -> string -> string list
(** Nearest first, root last. *)

val root_of : t -> string -> string
val subtypes : t -> string -> string list
(** Direct subtypes only. *)

val descendants : t -> string -> string list
(** Transitive subtypes, breadth-first, excluding [id] itself; [[]] for
    an unknown id. *)

val is_subtype : t -> sub:string -> super:string -> bool
(** Reflexive and transitive.  Subtype queries are map lookups: a
    schema carries its subtype closure (children, ancestors, roots and
    every entity's descendants), which {!create}, {!add_entity} and
    {!remove_entity} build once, after validation. *)

(** {1 Construction rules} *)

type rule =
  | Constructed of dep list
      (** a task: at most one functional plus data dependencies *)
  | Abstract of string list
      (** several construction methods; specialize to a subtype first *)
  | Source
      (** no construction rule; instances come from the store/catalog *)

val construction_rule : t -> string -> rule

val effective_deps : t -> string -> dep list
(** The entity's own rule, or the nearest ancestor's when inherited. *)

val functional_dep : t -> string -> dep option
val data_deps : t -> string -> dep list

val is_composite : t -> string -> bool
(** Only data dependencies and no functional one (paper section 3.1):
    the entity groups parts with implicit compose/decompose functions. *)

val is_primitive_source : t -> string -> bool

(** {1 Schema queries driving flow construction} *)

val consumers : t -> string -> string list
(** [consumers s id] lists entities with a dependency satisfiable by an
    instance of [id] (i.e. targeting [id] or an ancestor): the upward
    expansion candidates. *)

val consuming_roles : t -> string -> (string * dep) list
(** Like {!consumers} but also returns the matching dependency. *)

val goals_of_tool : t -> string -> string list
(** Entities whose functional dependency the given tool satisfies: the
    goal choices of the tool-based design approach. *)

val coproduced : t -> string -> string list
(** Entities produced by the same task invocation (same functional tool
    and same data-dependency targets), e.g. extraction statistics
    alongside an extracted netlist. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_dot : t -> string
