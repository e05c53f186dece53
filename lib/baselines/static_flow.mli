(** JESSI-style static flows: the baseline the paper argues against.

    A static flow is a predefined sequence of activities, each
    hardwired to a specific tool, followed step by step — the "flow
    straight-jacket" of Rumsey & Farquhar.  Experiments A1/A4 quantify
    the consequences: one legal order per flow, and tool changes
    invalidating every flow mentioning them. *)

open Ddf_graph

type activity = {
  act_name : string;
  hardwired_tool : string;
  consumes : string list;
  produces : string list;
}

type t = {
  flow_name : string;
  activities : activity list;  (** the mandated order *)
}

exception Static_flow_error of string

val create : string -> activity list -> t
val length : t -> int

val of_task_graph : ?name:string -> Task_graph.t -> t
(** Freeze a dynamic flow: invocation order fixed to the deterministic
    topological order, tools hardwired. *)

val next_step : t -> completed:int -> activity option
(** The straight-jacket: after [completed] steps, only the next
    activity is allowed. @raise Static_flow_error on a bad index. *)

val conforms : t -> (string * string list) list -> bool
(** Does an executed [(tool, produced)] sequence match the mandated
    order exactly? *)

val maintenance_burden : t list -> tool:string -> int
(** Flows that must be rewritten when the tool changes. *)

val pp : Format.formatter -> t -> unit
