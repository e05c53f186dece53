(* Hierarchical designs: a netlist of cell instances.

   Section 3.1 notes that "more complicated notions of design
   decomposition (such as a hierarchy of cells within a design)" live
   above the task level; this module provides that hierarchy for the
   substrate: cell definitions, an instance-based top level, and
   flattening into a plain netlist for the tools that need one. *)

type instance = {
  inst_name : string;
  cell : string;                        (* cell definition name *)
  connections : (string * string) list; (* cell port -> top-level net *)
}

type t = {
  design_name : string;
  cells : (string * Netlist.t) list;    (* definitions, by name *)
  top_inputs : string list;
  top_outputs : string list;
  instances : instance list;
  glue : Netlist.gate list;              (* optional top-level gates *)
}

exception Hier_error of string

let hier_errorf fmt = Format.kasprintf (fun s -> raise (Hier_error s)) fmt

let find_cell h name =
  match List.assoc_opt name h.cells with
  | Some nl -> nl
  | None -> hier_errorf "no cell definition %S" name

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate h =
  if h.design_name = "" then hier_errorf "design name must be non-empty";
  let seen_cells = Hashtbl.create 8 in
  List.iter
    (fun (name, nl) ->
      if Hashtbl.mem seen_cells name then
        hier_errorf "duplicate cell definition %S" name;
      Hashtbl.add seen_cells name ();
      Netlist.validate nl)
    h.cells;
  let seen_inst = Hashtbl.create 8 in
  (* net -> is it driven (by an instance output, glue gate or PI)? *)
  let drivers = Hashtbl.create 16 in
  let note_driver net what =
    if Hashtbl.mem drivers net then
      hier_errorf "net %s has several drivers (%s)" net what
    else Hashtbl.add drivers net what
  in
  List.iter (fun n -> note_driver n "primary input") h.top_inputs;
  List.iter
    (fun (g : Netlist.gate) -> note_driver g.Netlist.output "glue gate")
    h.glue;
  List.iter
    (fun inst ->
      if Hashtbl.mem seen_inst inst.inst_name then
        hier_errorf "duplicate instance %S" inst.inst_name;
      Hashtbl.add seen_inst inst.inst_name ();
      let cell = find_cell h inst.cell in
      let ports =
        cell.Netlist.primary_inputs @ cell.Netlist.primary_outputs
      in
      List.iter
        (fun (port, _) ->
          if not (List.mem port ports) then
            hier_errorf "instance %s: cell %s has no port %S" inst.inst_name
              inst.cell port)
        inst.connections;
      (* every cell input must be connected *)
      List.iter
        (fun port ->
          if not (List.mem_assoc port inst.connections) then
            hier_errorf "instance %s: input port %S unconnected" inst.inst_name
              port)
        cell.Netlist.primary_inputs;
      (* connected outputs drive their nets *)
      List.iter
        (fun port ->
          match List.assoc_opt port inst.connections with
          | Some net -> note_driver net (inst.inst_name ^ "." ^ port)
          | None -> ())
        cell.Netlist.primary_outputs)
    h.instances;
  (* every consumed net must be driven *)
  let require_driven net what =
    if not (Hashtbl.mem drivers net) then
      hier_errorf "net %s (%s) is undriven" net what
  in
  List.iter (fun n -> require_driven n "primary output") h.top_outputs;
  List.iter
    (fun (g : Netlist.gate) ->
      List.iter (fun n -> require_driven n ("input of " ^ g.Netlist.gname)) g.Netlist.inputs)
    h.glue;
  List.iter
    (fun inst ->
      let cell = find_cell h inst.cell in
      List.iter
        (fun port ->
          match List.assoc_opt port inst.connections with
          | Some net -> require_driven net (inst.inst_name ^ "." ^ port)
          | None -> ())
        cell.Netlist.primary_inputs)
    h.instances

let create ~design_name ~cells ~top_inputs ~top_outputs ?(glue = []) instances =
  let h = { design_name; cells; top_inputs; top_outputs; instances; glue } in
  validate h;
  h

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let instance_count h = List.length h.instances

let cells_used h =
  List.map (fun i -> i.cell) h.instances |> List.sort_uniq compare

let gate_count h =
  List.fold_left
    (fun acc inst -> acc + Netlist.gate_count (find_cell h inst.cell))
    (List.length h.glue) h.instances

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)
(* ------------------------------------------------------------------ *)

(* Expand every instance: cell-internal nets and gate names are
   prefixed with the instance name; port nets map to their connected
   top-level nets; unconnected cell outputs become dangling internal
   nets (legal: unread). *)
let flatten h =
  let gates = ref (List.rev h.glue) in
  let flops = ref [] in
  List.iter
    (fun inst ->
      let cell = find_cell h inst.cell in
      let rename net =
        match List.assoc_opt net inst.connections with
        | Some top_net -> top_net
        | None ->
          if
            List.mem net cell.Netlist.primary_inputs
            || List.mem net cell.Netlist.primary_outputs
          then inst.inst_name ^ "." ^ net  (* unconnected port *)
          else inst.inst_name ^ "." ^ net
      in
      List.iter
        (fun (g : Netlist.gate) ->
          gates :=
            {
              g with
              Netlist.gname = inst.inst_name ^ "." ^ g.Netlist.gname;
              Netlist.inputs = List.map rename g.Netlist.inputs;
              Netlist.output = rename g.Netlist.output;
            }
            :: !gates)
        cell.Netlist.gates;
      List.iter
        (fun (f : Netlist.flop) ->
          flops :=
            {
              f with
              Netlist.fname = inst.inst_name ^ "." ^ f.Netlist.fname;
              Netlist.d = rename f.Netlist.d;
              Netlist.q = rename f.Netlist.q;
            }
            :: !flops)
        cell.Netlist.flops)
    h.instances;
  Netlist.create ~name:(h.design_name ^ "_flat")
    ~flops:(List.rev !flops)
    ~primary_inputs:h.top_inputs ~primary_outputs:h.top_outputs
    (List.rev !gates)

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

(* An n-bit adder assembled from full-adder cell instances: the classic
   decomposition example. *)
let adder_of_cells n =
  if n < 1 then invalid_arg "Hier.adder_of_cells";
  let fa = Circuits.full_adder () in
  let a i = Printf.sprintf "a%d" i
  and b i = Printf.sprintf "b%d" i
  and s i = Printf.sprintf "s%d" i
  and c i = Printf.sprintf "carry%d" i in
  let instances =
    List.init n (fun i ->
        {
          inst_name = Printf.sprintf "fa%d" i;
          cell = "full_adder";
          connections =
            [
              ("a", a i); ("b", b i); ("cin", if i = 0 then "cin" else c (i - 1));
              ("sum", s i); ("cout", c i);
            ];
        })
  in
  create
    ~design_name:(Printf.sprintf "hier_adder%d" n)
    ~cells:[ ("full_adder", fa) ]
    ~top_inputs:
      ("cin" :: List.concat_map (fun i -> [ a i; b i ]) (List.init n Fun.id))
    ~top_outputs:(List.init n s @ [ c (n - 1) ])
    instances

let hash h = Netlist.hash (flatten h)

let pp ppf h =
  Fmt.pf ppf "design %s: %d instances over %d cells (%d gates flat)"
    h.design_name (instance_count h)
    (List.length (cells_used h))
    (gate_count h)
