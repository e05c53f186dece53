(** Performance analysis: the design object produced by the simulator
    tool — static timing plus activity-based power from a simulation
    run, both over one integer-indexed netlist. *)

type t = {
  circuit_name : string;
  model_name : string;
  critical_path_ps : int;
  total_switching : int;
  dynamic_power : float;       (** energy units per vector *)
  vectors_simulated : int;
  gate_count : int;
  output_signature : string;   (** digest of the output responses *)
}

type path_step = {
  ps_net : string;
  ps_arrival_ps : int;
  ps_gate : string option;  (** [None] at a timing start point *)
}

val critical_path : ?model:Device_model.t -> Netlist.t -> int
(** Longest weighted path from any start point (primary input or flop
    output) to any end point (primary output or flop input).
    @raise Netlist.Netlist_error as {!Netlist.levelized}. *)

val critical_path_report : ?model:Device_model.t -> Netlist.t -> path_step list
(** The worst path itself, start point first. *)

val pp_path : Format.formatter -> path_step list -> unit

val analyze : ?model:Device_model.t -> Netlist.t -> Stimuli.t -> t
(** The full simulator-tool behaviour: the netlist is indexed once
    ({!Netlist.index}) and its delays computed once; the event-driven
    run ({!Sim_event.simulate}) comes first, then static timing over
    the same delays.  Switching, power (each gate-driven net's changes
    times its gate's energy, summed in net-name order, per vector) and
    the output signature (every primary output sampled just before the
    next vector) are read from the run's change log.
    @raise Sim_event.Simulation_error as {!Sim_event.simulate}.
    @raise Netlist.Netlist_error as {!critical_path}. *)

val of_compiled_run :
  Sim_compiled.t -> (string * Logic.value) list list -> model_name:string -> t
(** Summary of a compiled-simulation run (Fig. 2): functional outputs
    only, no waveform-derived metrics. *)

val hash : t -> string
val pp : Format.formatter -> t -> unit
