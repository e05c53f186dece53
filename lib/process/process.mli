(** The design-process level, in the spirit of Minerva (Jacome &
    Director, DAC'92) — the layer above Hercules where the paper places
    design decomposition.

    A process is a hierarchy of cells carrying goal requirements and
    designer assignments.  Status is {e derived}, never stored: a
    requirement is met when the workspace history holds an up-to-date
    instance of the goal entity derived from the cell's logic view —
    the section 3.3 consistency query lifted to process tracking. *)

open Ddf_store

type requirement = private {
  req_goal : string;  (** goal entity that must exist for the cell *)
}

type cell = private {
  cell_name : string;
  requirements : requirement list;
  assigned_to : string option;
  children : cell list;
}

type t

exception Process_error of string

val require : string -> requirement

val cell :
  ?requirements:requirement list -> ?assigned_to:string ->
  ?children:cell list -> string -> cell

val create : process_name:string -> cell -> t
(** @raise Process_error on duplicate cell names. *)

val all_cells : cell -> cell list
val find_cell : t -> string -> cell
val process_name : t -> string
val root : t -> cell

val cell_keyword : string -> string
(** The store keyword linking instances to a cell: ["cell:<name>"].
    Install a cell's design data with this keyword. *)

type requirement_status =
  | No_logic_view
  | Missing
  | Met of Store.iid
  | Stale of Store.iid

type cell_report = {
  cr_cell : string;
  cr_assigned_to : string option;
  cr_statuses : (requirement * requirement_status) list;
  cr_complete : bool;
}

val requirement_status :
  Ddf_exec.Engine.context -> cell -> requirement -> requirement_status

val report_cell : Ddf_exec.Engine.context -> cell -> cell_report
val report : Ddf_exec.Engine.context -> t -> cell_report list

val completion : Ddf_exec.Engine.context -> t -> float
(** Fraction of requirement-bearing cells that are complete. *)

val worklist : Ddf_exec.Engine.context -> t -> designer:string -> string list
(** Cells the designer could work on now: theirs (or unassigned), with
    unmet requirements and a logic view to start from. *)

val status_name : requirement_status -> string
val pp_report : Format.formatter -> cell_report list -> unit
