(** Statistical circuit optimizers over gate drive strengths.

    Three tools with identical input and output types — so all three
    share one encapsulation, the paper's section 3.3 sharing example:
    random search, greedy hill climbing and simulated annealing, each
    minimizing a delay/power trade-off. *)

type objective = {
  delay_weight : float;
  power_weight : float;
}

val default_objective : objective

type report = {
  strategy : string;
  initial_cost : float;
  final_cost : float;
  evaluations : int;
}

type strategy =
  | Random_search
  | Hill_climb
  | Annealing

val strategy_name : strategy -> string
val all_strategies : strategy list

val cost : ?model:Device_model.t -> objective -> Netlist.t -> float
(** Weighted critical path plus total gate energy. *)

val cost_with_activity :
  ?model:Device_model.t -> objective -> activity:(string -> int) ->
  Netlist.t -> float
(** Activity-aware cost: gate energy weighted by measured per-net
    switching counts — the objective used when a simulator is passed to
    the optimizer as data (section 3.3). *)

val run :
  ?budget:int -> ?objective:objective -> ?cost:(Netlist.t -> float) ->
  strategy -> Netlist.t -> Rng.t -> Netlist.t * report
(** Optimize drive assignments within the evaluation budget; the result
    is functionally identical to the input (drives do not change
    logic) and never costlier. *)

val pp_report : Format.formatter -> report -> unit
