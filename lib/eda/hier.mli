(** Hierarchical designs: a top level of cell instances over a library
    of cell definitions, with flattening into a plain netlist.

    This is the "hierarchy of cells within a design" that section 3.1
    places above the task level; the design-process manager
    ({!Ddf_process}) tracks per-cell progress over it. *)

type instance = {
  inst_name : string;
  cell : string;
  connections : (string * string) list;  (** cell port -> top-level net *)
}

type t = private {
  design_name : string;
  cells : (string * Netlist.t) list;
  top_inputs : string list;
  top_outputs : string list;
  instances : instance list;
  glue : Netlist.gate list;
}

exception Hier_error of string

val create :
  design_name:string -> cells:(string * Netlist.t) list ->
  top_inputs:string list -> top_outputs:string list ->
  ?glue:Netlist.gate list -> instance list -> t
(** Validates: unique cell and instance names, known ports, every cell
    input connected, single driver per top-level net, every consumed
    net driven. @raise Hier_error on violation. *)

val validate : t -> unit
val find_cell : t -> string -> Netlist.t
val instance_count : t -> int
val gate_count : t -> int

val flatten : t -> Netlist.t
(** Expand every instance; internal nets and gate names are prefixed
    with the instance name. *)

val adder_of_cells : int -> t
(** An n-bit adder assembled from full-adder cell instances. *)

val hash : t -> string
val pp : Format.formatter -> t -> unit
