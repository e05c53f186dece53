(** Gate-level netlists: the central design-data type of the substrate.

    The combinational part is a DAG of gates over named nets, rooted at
    primary inputs and flop outputs.  Gates carry a drive strength (1,
    2 or 4) so timing has a sizing knob and the statistical optimizers
    a real design space.  Sequential designs add D flip-flops clocked
    once per stimulus vector (the clock net is implicit). *)

type gate = {
  gname : string;
  op : Logic.gate_op;
  inputs : string list;
  output : string;
  drive : int;
}

(** A D flip-flop: [q] takes [d]'s settled value at each clock edge. *)
type flop = {
  fname : string;
  d : string;
  q : string;
  init : Logic.value;
}

type t = {
  name : string;
  primary_inputs : string list;
  primary_outputs : string list;
  gates : gate list;
  flops : flop list;
}

exception Netlist_error of string

(** {1 Construction} *)

val gate : ?drive:int -> string -> Logic.gate_op -> string list -> string -> gate
(** [gate name op inputs output] checks arity and drive.
    @raise Netlist_error on violation. *)

val flop : ?init:Logic.value -> string -> d:string -> q:string -> flop

val create :
  ?flops:flop list ->
  name:string -> primary_inputs:string list -> primary_outputs:string list ->
  gate list -> t
(** Validates: gate names unique and distinct from flop names (two
    flops may share a name), single driver per net, no
    driven primary inputs, no undriven gate or flop inputs or primary
    outputs. @raise Netlist_error on violation. *)

val is_sequential : t -> bool

val validate : t -> unit

(** {1 Structure} *)

val nets : t -> string list
val gate_count : t -> int
val net_count : t -> int
val transistor_count : t -> int

(** {1 Integer net ids} *)

(** The netlist numbered once, for the passes that visit every net per
    call: the event simulator, static timing and power.  Net ids cover
    primary inputs, gate inputs and outputs, primary outputs and flop
    nets, in first-seen order; a gate's id is its list position. *)
type indexed = {
  source : t;
  ids : (string, int) Hashtbl.t;
  names : string array;            (** by net id *)
  gate : gate array;               (** by gate id *)
  gate_inputs : int array array;   (** by gate *)
  gate_output : int array;         (** by gate *)
  fanout : int array;
      (** by net: its readers, a primary output counting as one *)
  outputs : int array;             (** primary outputs, in order *)
}

val index : t -> indexed

val levelized : indexed -> int array * int array
(** Gate ids in topological order (by level, then list position), and
    each gate's level (primary inputs and flop outputs are level-0
    sources).
    @raise Netlist_error on several drivers of a net, a combinational
    cycle or an undriven net. *)

val depth : t -> int
(** The highest gate level; 0 with no gates. *)

(** {1 Evaluation} *)

type state = (string * Logic.value) list
(** Current flop values, by flop name. *)

val initial_state : t -> state

val eval : ?state:state -> t -> (string * Logic.value) list -> (string * Logic.value) list
(** Zero-delay steady-state values of the primary outputs under the
    given input environment; missing inputs read as X; flops read from
    [state] (initial values by default). *)

val step :
  t -> state -> (string * Logic.value) list ->
  state * (string * Logic.value) list
(** One clock cycle: settle, capture every flop's [d], return the new
    state and the settled outputs. *)

val run_cycles :
  t -> (string * Logic.value) list list -> (string * Logic.value) list list
(** Clocked simulation from the initial state, one cycle per vector. *)

(** {1 Editing primitives (used by the netlist-editor tool)} *)

val rename : t -> string -> t
val add_gate : t -> gate -> t
val remove_gate : t -> string -> t
val set_drive : t -> string -> int -> t
val find_gate : t -> string -> gate option

(** {1 Identity} *)

val to_canonical_string : t -> string
val hash : t -> string
(** Content hash: drives the store's physical-data sharing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
