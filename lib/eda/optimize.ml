(* Statistical circuit optimizers over gate drive strengths.

   Three tools with the same input and output types, so all three share
   one encapsulation (the paper's section 3.3 sharing example): random
   search, greedy hill climbing and simulated annealing, each seeking
   drive assignments minimizing a delay/power trade-off. *)

type objective = {
  delay_weight : float;
  power_weight : float;
}

let default_objective = { delay_weight = 1.0; power_weight = 0.5 }

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

let strategy_name = function
  | Random_search -> "random_search"
  | Hill_climb -> "hill_climb"
  | Annealing -> "annealing"

let all_strategies = [ Random_search; Hill_climb; Annealing ]

(* Static cost: critical path plus total gate energy under the default
   model, weighted by the objective. *)
let cost ?(model = Device_model.default) obj nl =
  let delay = float_of_int (Performance.critical_path ~model nl) in
  let power =
    List.fold_left
      (fun acc g -> acc +. Device_model.gate_energy model g)
      0.0 nl.Netlist.gates
  in
  (obj.delay_weight *. delay) +. (obj.power_weight *. power)

let gate_names nl = List.map (fun (g : Netlist.gate) -> g.Netlist.gname) nl.Netlist.gates

let random_neighbor rng nl =
  match gate_names nl with
  | [] -> nl
  | names ->
    let gname = Rng.pick rng names in
    let drive = Rng.pick rng [ 1; 2; 4 ] in
    Netlist.set_drive nl gname drive

(* Activity-aware cost: switching counts (e.g. measured by a compiled
   simulator passed to the optimizer as data) weigh each gate's energy,
   instead of assuming uniform activity. *)
let cost_with_activity ?(model = Device_model.default) obj ~activity nl =
  let delay = float_of_int (Performance.critical_path ~model nl) in
  let power =
    List.fold_left
      (fun acc (g : Netlist.gate) ->
        acc
        +. Device_model.gate_energy model g
           *. float_of_int (1 + activity g.Netlist.output))
      0.0 nl.Netlist.gates
  in
  (obj.delay_weight *. delay) +. (obj.power_weight *. power)

let run ?(budget = 200) ?(objective = default_objective) ?cost:cost_fn strategy
    nl rng =
  let cost_fn =
    match cost_fn with Some f -> f | None -> cost objective
  in
  let evaluations = ref 0 in
  let eval nl =
    incr evaluations;
    cost_fn nl
  in
  let initial_cost = eval nl in
  let best = ref nl and best_cost = ref initial_cost in
  (match strategy with
  | Random_search ->
    (* independent random full assignments *)
    let names = gate_names nl in
    for _ = 1 to budget do
      let cand =
        List.fold_left
          (fun acc gname -> Netlist.set_drive acc gname (Rng.pick rng [ 1; 2; 4 ]))
          nl names
      in
      let c = eval cand in
      if c < !best_cost then begin
        best := cand;
        best_cost := c
      end
    done
  | Hill_climb ->
    let current = ref nl and current_cost = ref initial_cost in
    for _ = 1 to budget do
      let cand = random_neighbor rng !current in
      let c = eval cand in
      if c < !current_cost then begin
        current := cand;
        current_cost := c
      end
    done;
    best := !current;
    best_cost := !current_cost
  | Annealing ->
    let current = ref nl and current_cost = ref initial_cost in
    let t0 = 0.1 *. initial_cost in
    for step = 1 to budget do
      let temp = t0 *. (1.0 -. (float_of_int step /. float_of_int (budget + 1))) in
      let cand = random_neighbor rng !current in
      let c = eval cand in
      let accept =
        c < !current_cost
        || (temp > 0.0 && Rng.float rng < exp ((!current_cost -. c) /. temp))
      in
      if accept then begin
        current := cand;
        current_cost := c
      end;
      if c < !best_cost then begin
        best := cand;
        best_cost := c
      end
    done);
  let optimized = Netlist.rename !best (nl.Netlist.name ^ "_opt") in
  ( optimized,
    {
      strategy = strategy_name strategy;
      initial_cost;
      final_cost = !best_cost;
      evaluations = !evaluations;
    } )

let pp_report ppf r =
  Fmt.pf ppf "%s: %.1f -> %.1f in %d evaluations" r.strategy r.initial_cost
    r.final_cost r.evaluations
