(** Parallel task execution (Fig. 6): disjoint branches of a flow can
    execute in parallel, possibly on different machines.  This module
    simulates a machine pool from the costs of a real run, which
    {!Engine.execute} makes one invocation at a time. *)

open Ddf_graph

type entry = {
  outputs : int list;   (** output nodes of the scheduled invocation *)
  machine : int;
  start_us : int;
  finish_us : int;
}

type schedule = {
  entries : entry list;
  makespan_us : int;
  serial_us : int;
  machines : int;
}

exception Schedule_error of string

(** Ready-queue ordering for the list scheduler. *)
type heuristic =
  | Longest_first
  | Shortest_first
  | Fifo

val heuristic_name : heuristic -> string

val schedule :
  ?heuristic:heuristic -> Task_graph.t -> costs:(int list * int) list ->
  machines:int -> schedule
(** Deterministic list scheduling (longest-task-first by default) of a
    flow's invocations onto a simulated pool, using the per-invocation
    costs observed during a real run ({!Engine.run.costs}); memo hits
    cost nothing and are skipped. *)

val speedup : schedule -> float

val chrome_trace_of_schedule :
  ?label_of:(int list -> string) -> schedule -> string
(** The schedule as a Chrome trace-event JSON document: one lane (tid)
    per simulated machine, one complete duration event per scheduled
    invocation -- a Fig. 6 Gantt chart for chrome://tracing or
    Perfetto.  [label_of] names an invocation from its output nodes. *)

val pp_schedule : Format.formatter -> schedule -> unit
