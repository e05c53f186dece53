(* S-expression codecs for every design-data payload and for the
   framework state (store instances, history records).

   Round-trip fidelity matters: gate and cell names survive (edit
   scripts reference them), content hashes are recomputed on load and
   must agree, and history record ids are preserved so traces keep
   their meaning. *)

open Ddf_eda
module S = Sexp

exception Codec_error of string

let codec_errorf fmt = Format.kasprintf (fun s -> raise (Codec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Substrate types                                                     *)
(* ------------------------------------------------------------------ *)

let gate_to_sexp (g : Netlist.gate) =
  S.list
    [ S.atom g.Netlist.gname; S.atom (Logic.op_name g.Netlist.op);
      S.list (List.map S.atom g.Netlist.inputs); S.atom g.Netlist.output;
      S.int g.Netlist.drive ]

let gate_of_sexp sexp =
  match S.as_list sexp with
  | [ gname; op; inputs; output; drive ] ->
    let op_name = S.as_atom op in
    let op =
      match Logic.op_of_name op_name with
      | Some op -> op
      | None -> codec_errorf "unknown operator %S" op_name
    in
    Netlist.gate ~drive:(S.as_int drive) (S.as_atom gname) op
      (List.map S.as_atom (S.as_list inputs))
      (S.as_atom output)
  | _ -> codec_errorf "malformed gate"

let flop_to_sexp (f : Netlist.flop) =
  S.list
    [ S.atom f.Netlist.fname; S.atom f.Netlist.d; S.atom f.Netlist.q;
      S.atom (Logic.value_name f.Netlist.init) ]

let flop_of_sexp sexp =
  match S.as_list sexp with
  | [ fname; d; q; init ] ->
    let init =
      match S.as_atom init with
      | "0" -> Logic.V0
      | "1" -> Logic.V1
      | "x" -> Logic.VX
      | s -> codec_errorf "bad flop init %S" s
    in
    Netlist.flop ~init (S.as_atom fname) ~d:(S.as_atom d) ~q:(S.as_atom q)
  | _ -> codec_errorf "malformed flop"

let netlist_to_sexp (nl : Netlist.t) =
  S.list
    ([ S.atom "netlist";
       S.field "name" [ S.atom nl.Netlist.name ];
       S.field "inputs" (List.map S.atom nl.Netlist.primary_inputs);
       S.field "outputs" (List.map S.atom nl.Netlist.primary_outputs);
       S.field "gates" (List.map gate_to_sexp nl.Netlist.gates) ]
    @
    if nl.Netlist.flops = [] then []
    else [ S.field "flops" (List.map flop_to_sexp nl.Netlist.flops) ])

let netlist_of_fields fields =
  let flops =
    match S.find_field_opt fields "flops" with
    | Some items -> List.map flop_of_sexp items
    | None -> []
  in
  Netlist.create ~flops
    ~name:(S.as_atom (S.one "name" (S.find_field fields "name")))
    ~primary_inputs:(List.map S.as_atom (S.find_field fields "inputs"))
    ~primary_outputs:(List.map S.as_atom (S.find_field fields "outputs"))
    (List.map gate_of_sexp (S.find_field fields "gates"))

let pin_to_sexp (p : Layout.pin) =
  S.list [ S.atom p.Layout.pname; S.int p.Layout.px; S.int p.Layout.py ]

let pin_of_sexp sexp =
  match S.as_list sexp with
  | [ pname; px; py ] ->
    { Layout.pname = S.as_atom pname; px = S.as_int px; py = S.as_int py }
  | _ -> codec_errorf "malformed pin"

let cell_kind_to_sexp = function
  | Layout.Gate_cell (op, drive) ->
    S.list [ S.atom "gate"; S.atom (Logic.op_name op); S.int drive ]
  | Layout.Input_pad port -> S.list [ S.atom "in"; S.atom port ]
  | Layout.Output_pad port -> S.list [ S.atom "out"; S.atom port ]

let cell_kind_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "gate"; op; drive ] -> (
    match Logic.op_of_name (S.as_atom op) with
    | Some op -> Layout.Gate_cell (op, S.as_int drive)
    | None -> codec_errorf "unknown cell operator")
  | [ S.Atom "in"; port ] -> Layout.Input_pad (S.as_atom port)
  | [ S.Atom "out"; port ] -> Layout.Output_pad (S.as_atom port)
  | _ -> codec_errorf "malformed cell kind"

let cell_to_sexp (c : Layout.cell) =
  S.list
    [ S.atom c.Layout.cname; cell_kind_to_sexp c.Layout.kind;
      S.int c.Layout.x; S.int c.Layout.y; S.int c.Layout.width;
      S.int c.Layout.height; S.list (List.map pin_to_sexp c.Layout.pins) ]

let cell_of_sexp sexp =
  match S.as_list sexp with
  | [ cname; kind; x; y; width; height; pins ] ->
    {
      Layout.cname = S.as_atom cname;
      kind = cell_kind_of_sexp kind;
      x = S.as_int x;
      y = S.as_int y;
      width = S.as_int width;
      height = S.as_int height;
      pins = List.map pin_of_sexp (S.as_list pins);
    }
  | _ -> codec_errorf "malformed cell"

let segment_to_sexp (s : Layout.segment) =
  S.list [ S.int s.Layout.x1; S.int s.Layout.y1; S.int s.Layout.x2; S.int s.Layout.y2 ]

let segment_of_sexp sexp =
  match S.as_list sexp with
  | [ x1; y1; x2; y2 ] ->
    Layout.segment (S.as_int x1) (S.as_int y1) (S.as_int x2) (S.as_int y2)
  | _ -> codec_errorf "malformed segment"

let layout_to_sexp (l : Layout.t) =
  S.list
    [ S.atom "layout";
      S.field "name" [ S.atom l.Layout.layout_name ];
      S.field "die" [ S.int l.Layout.die_width; S.int l.Layout.die_height ];
      S.field "cells" (List.map cell_to_sexp l.Layout.cells);
      S.field "wires" (List.map segment_to_sexp l.Layout.wires) ]

let layout_of_fields fields =
  let die = S.find_field fields "die" in
  let die_width, die_height =
    match die with
    | [ w; h ] -> (S.as_int w, S.as_int h)
    | _ -> codec_errorf "malformed die"
  in
  {
    Layout.layout_name = S.as_atom (S.one "name" (S.find_field fields "name"));
    cells = List.map cell_of_sexp (S.find_field fields "cells");
    wires = List.map segment_of_sexp (S.find_field fields "wires");
    die_width;
    die_height;
  }

let model_to_sexp (m : Device_model.t) =
  S.list
    [ S.atom "device_models"; S.atom m.Device_model.model_name;
      S.int m.Device_model.process_nm; S.int m.Device_model.vdd_mv;
      S.int m.Device_model.vth_mv; S.float m.Device_model.delay_scale;
      S.float m.Device_model.power_scale ]

let model_of_parts = function
  | [ name; process; vdd; vth; dscale; pscale ] ->
    Device_model.create ~model_name:(S.as_atom name)
      ~process_nm:(S.as_int process) ~vdd_mv:(S.as_int vdd)
      ~vth_mv:(S.as_int vth) ~delay_scale:(S.as_float dscale)
      ~power_scale:(S.as_float pscale)
  | _ -> codec_errorf "malformed device model"

let value_name = function
  | Logic.V0 -> "0"
  | Logic.V1 -> "1"
  | Logic.VX -> "x"

let value_of_name = function
  | "0" -> Logic.V0
  | "1" -> Logic.V1
  | "x" -> Logic.VX
  | s -> codec_errorf "bad logic value %S" s

let stimuli_to_sexp stim =
  S.list
    [ S.atom "stimuli";
      S.field "interval" [ S.int (Stimuli.interval_ps stim) ];
      S.field "vectors"
        (List.map
           (fun vec ->
             S.list
               (List.map
                  (fun (net, v) -> S.list [ S.atom net; S.atom (value_name v) ])
                  vec))
           (Stimuli.vectors stim)) ]

let stimuli_of_fields fields =
  let vector sexp =
    List.map
      (fun pair ->
        match S.as_list pair with
        | [ net; v ] -> (S.as_atom net, value_of_name (S.as_atom v))
        | _ -> codec_errorf "malformed stimulus pair")
      (S.as_list sexp)
  in
  Stimuli.create
    ~interval_ps:(S.as_int (S.one "interval" (S.find_field fields "interval")))
    (List.map vector (S.find_field fields "vectors"))

let performance_to_sexp (p : Performance.t) =
  S.list
    [ S.atom "performance"; S.atom p.Performance.circuit_name;
      S.atom p.Performance.model_name; S.int p.Performance.critical_path_ps;
      S.int p.Performance.total_switching; S.float p.Performance.dynamic_power;
      S.int p.Performance.vectors_simulated; S.int p.Performance.gate_count;
      S.atom p.Performance.output_signature ]

let performance_of_parts = function
  | [ circuit; model; cp; sw; power; vectors; gates; signature ] ->
    {
      Performance.circuit_name = S.as_atom circuit;
      model_name = S.as_atom model;
      critical_path_ps = S.as_int cp;
      total_switching = S.as_int sw;
      dynamic_power = S.as_float power;
      vectors_simulated = S.as_int vectors;
      gate_count = S.as_int gates;
      output_signature = S.as_atom signature;
    }
  | _ -> codec_errorf "malformed performance"

let mismatch_to_sexp = function
  | Lvs.Port_sets_differ s -> S.list [ S.atom "ports"; S.atom s ]
  | Lvs.Gate_count (a, b) -> S.list [ S.atom "count"; S.int a; S.int b ]
  | Lvs.Unmatched_gate g -> S.list [ S.atom "unmatched"; S.atom g ]
  | Lvs.Signature_conflict s -> S.list [ S.atom "conflict"; S.atom s ]

let mismatch_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "ports"; s ] -> Lvs.Port_sets_differ (S.as_atom s)
  | [ S.Atom "count"; a; b ] -> Lvs.Gate_count (S.as_int a, S.as_int b)
  | [ S.Atom "unmatched"; g ] -> Lvs.Unmatched_gate (S.as_atom g)
  | [ S.Atom "conflict"; s ] -> Lvs.Signature_conflict (S.as_atom s)
  | _ -> codec_errorf "malformed mismatch"

let verification_to_sexp (v : Lvs.t) =
  S.list
    [ S.atom "verification";
      S.field "reference" [ S.atom v.Lvs.reference_name ];
      S.field "candidate" [ S.atom v.Lvs.candidate_name ];
      S.field "equivalent" [ S.bool v.Lvs.equivalent ];
      S.field "matched" [ S.int v.Lvs.matched_gates ];
      S.field "mismatches" (List.map mismatch_to_sexp v.Lvs.mismatches);
      S.field "gate_map"
        (List.map
           (fun (a, b) -> S.list [ S.atom a; S.atom b ])
           v.Lvs.gate_map) ]

let verification_of_fields fields =
  {
    Lvs.reference_name = S.as_atom (S.one "reference" (S.find_field fields "reference"));
    candidate_name = S.as_atom (S.one "candidate" (S.find_field fields "candidate"));
    equivalent = S.as_bool (S.one "equivalent" (S.find_field fields "equivalent"));
    matched_gates = S.as_int (S.one "matched" (S.find_field fields "matched"));
    mismatches = List.map mismatch_of_sexp (S.find_field fields "mismatches");
    gate_map =
      List.map
        (fun pair ->
          match S.as_list pair with
          | [ a; b ] -> (S.as_atom a, S.as_atom b)
          | _ -> codec_errorf "malformed gate map entry")
        (S.find_field fields "gate_map");
  }

let plot_to_sexp (p : Plot.t) =
  S.list
    [ S.atom "plot";
      S.field "title" [ S.atom p.Plot.title ];
      S.field "rendering" [ S.atom p.Plot.rendering ];
      S.field "nets" (List.map S.atom p.Plot.nets_plotted) ]

let plot_of_fields fields =
  {
    Plot.title = S.as_atom (S.one "title" (S.find_field fields "title"));
    rendering = S.as_atom (S.one "rendering" (S.find_field fields "rendering"));
    nets_plotted = List.map S.as_atom (S.find_field fields "nets");
  }

let statistics_to_sexp (s : Extract.statistics) =
  S.list
    [ S.atom "extraction_statistics"; S.atom s.Extract.source_layout;
      S.int s.Extract.nets_extracted; S.int s.Extract.cells_extracted;
      S.int s.Extract.total_wirelength; S.float s.Extract.estimated_cap_ff;
      S.int s.Extract.vias; S.int s.Extract.die_area; S.int s.Extract.opens ]

let statistics_of_parts = function
  | [ source; nets; cells; wl; cap; vias; area; opens ] ->
    {
      Extract.source_layout = S.as_atom source;
      nets_extracted = S.as_int nets;
      cells_extracted = S.as_int cells;
      total_wirelength = S.as_int wl;
      estimated_cap_ff = S.as_float cap;
      vias = S.as_int vias;
      die_area = S.as_int area;
      opens = S.as_int opens;
    }
  | _ -> codec_errorf "malformed extraction statistics"

let device_to_sexp (d : Transistor.device) =
  S.list
    [ S.atom d.Transistor.dname;
      S.atom (match d.Transistor.dtype with Transistor.Nmos -> "n" | Transistor.Pmos -> "p");
      S.atom d.Transistor.gate_net; S.atom d.Transistor.source;
      S.atom d.Transistor.drain ]

let device_of_sexp sexp =
  match S.as_list sexp with
  | [ dname; dtype; gate_net; source; drain ] ->
    {
      Transistor.dname = S.as_atom dname;
      dtype =
        (match S.as_atom dtype with
        | "n" -> Transistor.Nmos
        | "p" -> Transistor.Pmos
        | s -> codec_errorf "bad device type %S" s);
      gate_net = S.as_atom gate_net;
      source = S.as_atom source;
      drain = S.as_atom drain;
    }
  | _ -> codec_errorf "malformed device"

let transistor_to_sexp (t : Transistor.t) =
  S.list
    [ S.atom "transistor_view";
      S.field "name" [ S.atom t.Transistor.tname ];
      S.field "inputs" (List.map S.atom t.Transistor.inputs);
      S.field "outputs" (List.map S.atom t.Transistor.outputs);
      S.field "stages"
        (List.map
           (fun (st : Transistor.stage) ->
             S.list
               [ S.atom st.Transistor.out;
                 S.list (List.map device_to_sexp st.Transistor.devices) ])
           t.Transistor.stages) ]

let transistor_of_fields fields =
  {
    Transistor.tname = S.as_atom (S.one "name" (S.find_field fields "name"));
    inputs = List.map S.as_atom (S.find_field fields "inputs");
    outputs = List.map S.as_atom (S.find_field fields "outputs");
    stages =
      List.map
        (fun sexp ->
          match S.as_list sexp with
          | [ out; devices ] ->
            {
              Transistor.out = S.as_atom out;
              devices = List.map device_of_sexp (S.as_list devices);
            }
          | _ -> codec_errorf "malformed stage")
        (S.find_field fields "stages");
  }

(* ------------------------------------------------------------------ *)
(* Edit scripts and tool payloads                                      *)
(* ------------------------------------------------------------------ *)

let edit_to_sexp = function
  | Edit_script.Rename n -> S.list [ S.atom "rename"; S.atom n ]
  | Edit_script.Add_gate { gname; op; inputs; output; drive } ->
    S.list
      [ S.atom "add"; S.atom gname; S.atom (Logic.op_name op);
        S.list (List.map S.atom inputs); S.atom output; S.int drive ]
  | Edit_script.Remove_gate g -> S.list [ S.atom "remove"; S.atom g ]
  | Edit_script.Set_drive (g, d) -> S.list [ S.atom "drive"; S.atom g; S.int d ]
  | Edit_script.Insert_buffer { net; gname } ->
    S.list [ S.atom "buffer"; S.atom net; S.atom gname ]

let edit_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "rename"; n ] -> Edit_script.Rename (S.as_atom n)
  | [ S.Atom "add"; gname; op; inputs; output; drive ] ->
    let op_name = S.as_atom op in
    (match Logic.op_of_name op_name with
    | Some op ->
      Edit_script.Add_gate
        { gname = S.as_atom gname; op;
          inputs = List.map S.as_atom (S.as_list inputs);
          output = S.as_atom output; drive = S.as_int drive }
    | None -> codec_errorf "unknown operator %S" op_name)
  | [ S.Atom "remove"; g ] -> Edit_script.Remove_gate (S.as_atom g)
  | [ S.Atom "drive"; g; d ] -> Edit_script.Set_drive (S.as_atom g, S.as_int d)
  | [ S.Atom "buffer"; net; gname ] ->
    Edit_script.Insert_buffer { net = S.as_atom net; gname = S.as_atom gname }
  | _ -> codec_errorf "malformed netlist edit"

let layout_edit_to_sexp = function
  | Layout.Move_cell (c, dx, dy) ->
    S.list [ S.atom "move"; S.atom c; S.int dx; S.int dy ]
  | Layout.Delete_cell c -> S.list [ S.atom "delete_cell"; S.atom c ]
  | Layout.Rename_layout n -> S.list [ S.atom "rename"; S.atom n ]
  | Layout.Add_segment s -> S.list [ S.atom "add_wire"; segment_to_sexp s ]
  | Layout.Delete_segment s -> S.list [ S.atom "delete_wire"; segment_to_sexp s ]

let layout_edit_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "move"; c; dx; dy ] ->
    Layout.Move_cell (S.as_atom c, S.as_int dx, S.as_int dy)
  | [ S.Atom "delete_cell"; c ] -> Layout.Delete_cell (S.as_atom c)
  | [ S.Atom "rename"; n ] -> Layout.Rename_layout (S.as_atom n)
  | [ S.Atom "add_wire"; s ] -> Layout.Add_segment (segment_of_sexp s)
  | [ S.Atom "delete_wire"; s ] -> Layout.Delete_segment (segment_of_sexp s)
  | _ -> codec_errorf "malformed layout edit"

let model_edit_to_sexp = function
  | Device_model.Rename n -> S.list [ S.atom "rename"; S.atom n ]
  | Device_model.Set_vdd v -> S.list [ S.atom "vdd"; S.int v ]
  | Device_model.Set_vth v -> S.list [ S.atom "vth"; S.int v ]
  | Device_model.Scale_delay f -> S.list [ S.atom "delay"; S.float f ]
  | Device_model.Scale_power f -> S.list [ S.atom "power"; S.float f ]

let model_edit_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "rename"; n ] -> Device_model.Rename (S.as_atom n)
  | [ S.Atom "vdd"; v ] -> Device_model.Set_vdd (S.as_int v)
  | [ S.Atom "vth"; v ] -> Device_model.Set_vth (S.as_int v)
  | [ S.Atom "delay"; f ] -> Device_model.Scale_delay (S.as_float f)
  | [ S.Atom "power"; f ] -> Device_model.Scale_power (S.as_float f)
  | _ -> codec_errorf "malformed model edit"

let tool_to_sexp = function
  | Ddf_data.Builtin key -> S.list [ S.atom "builtin"; S.atom key ]
  | Ddf_data.Scripted_netlist_editor script ->
    S.list
      [ S.atom "netlist_session"; S.atom script.Edit_script.script_name;
        S.list (List.map edit_to_sexp script.Edit_script.edits) ]
  | Ddf_data.Scripted_layout_editor edits ->
    S.list [ S.atom "layout_session"; S.list (List.map layout_edit_to_sexp edits) ]
  | Ddf_data.Scripted_model_editor edits ->
    S.list [ S.atom "model_session"; S.list (List.map model_edit_to_sexp edits) ]
  | Ddf_data.Compiled_simulator compiled ->
    (* persist the full program: the source netlist may not itself be a
       store instance (tools can be installed directly) *)
    let slot_pairs pairs =
      List.map (fun (net, slot) -> S.list [ S.atom net; S.int slot ]) pairs
    in
    S.list
      [ S.atom "compiled_simulator";
        S.field "source_name" [ S.atom compiled.Sim_compiled.source_name ];
        S.field "source_hash" [ S.atom compiled.Sim_compiled.source_hash ];
        S.field "nets" [ S.int compiled.Sim_compiled.n_nets ];
        S.field "flops"
          (List.map
             (fun (d, q, init) ->
               S.list [ S.int d; S.int q; S.atom (Logic.value_name init) ])
             compiled.Sim_compiled.flop_slots);
        S.field "net_index" (slot_pairs compiled.Sim_compiled.net_index);
        S.field "inputs" (slot_pairs compiled.Sim_compiled.input_slots);
        S.field "outputs" (slot_pairs compiled.Sim_compiled.output_slots);
        S.field "program"
          (Array.to_list
             (Array.map
                (fun (i : Sim_compiled.instr) ->
                  S.list
                    [ S.atom (Logic.op_name i.Sim_compiled.op);
                      S.list
                        (Array.to_list
                           (Array.map S.int i.Sim_compiled.args));
                      S.int i.Sim_compiled.dst ])
                compiled.Sim_compiled.program)) ]

let tool_of_sexp sexp =
  match S.as_list sexp with
  | [ S.Atom "builtin"; key ] -> Ddf_data.Builtin (S.as_atom key)
  | [ S.Atom "netlist_session"; name; edits ] ->
    Ddf_data.Scripted_netlist_editor
      (Edit_script.create ~name:(S.as_atom name)
         (List.map edit_of_sexp (S.as_list edits)))
  | [ S.Atom "layout_session"; edits ] ->
    Ddf_data.Scripted_layout_editor
      (List.map layout_edit_of_sexp (S.as_list edits))
  | [ S.Atom "model_session"; edits ] ->
    Ddf_data.Scripted_model_editor
      (List.map model_edit_of_sexp (S.as_list edits))
  | S.Atom "compiled_simulator" :: fields ->
    let slot_pairs items =
      List.map
        (fun sexp ->
          match S.as_list sexp with
          | [ net; slot ] -> (S.as_atom net, S.as_int slot)
          | _ -> codec_errorf "malformed slot pair")
        items
    in
    let program =
      List.map
        (fun sexp ->
          match S.as_list sexp with
          | [ op; args; dst ] -> (
            match Logic.op_of_name (S.as_atom op) with
            | Some op ->
              ( op,
                Array.of_list (List.map S.as_int (S.as_list args)),
                S.as_int dst )
            | None -> codec_errorf "unknown instruction operator")
          | _ -> codec_errorf "malformed instruction")
        (S.find_field fields "program")
    in
    let flop_slots =
      match S.find_field_opt fields "flops" with
      | None -> []
      | Some items ->
        List.map
          (fun sexp ->
            match S.as_list sexp with
            | [ d; q; init ] ->
              ( S.as_int d, S.as_int q,
                match S.as_atom init with
                | "0" -> Logic.V0
                | "1" -> Logic.V1
                | "x" -> Logic.VX
                | s -> codec_errorf "bad flop init %S" s )
            | _ -> codec_errorf "malformed flop slot")
          items
    in
    Ddf_data.Compiled_simulator
      (Sim_compiled.rebuild ~flop_slots
         ~source_name:
           (S.as_atom (S.one "source_name" (S.find_field fields "source_name")))
         ~source_hash:
           (S.as_atom (S.one "source_hash" (S.find_field fields "source_hash")))
         ~net_index:(slot_pairs (S.find_field fields "net_index"))
         ~n_nets:(S.as_int (S.one "nets" (S.find_field fields "nets")))
         ~program
         ~input_slots:(slot_pairs (S.find_field fields "inputs"))
         ~output_slots:(slot_pairs (S.find_field fields "outputs"))
         ())
  | _ -> codec_errorf "malformed tool payload"

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let value_to_sexp = function
  | Ddf_data.Blob { blob_kind; text } ->
    S.list [ S.atom "blob"; S.atom blob_kind; S.atom text ]
  | Ddf_data.Netlist nl -> netlist_to_sexp nl
  | Ddf_data.Layout l -> layout_to_sexp l
  | Ddf_data.Device_models m -> model_to_sexp m
  | Ddf_data.Stimuli s -> stimuli_to_sexp s
  | Ddf_data.Circuit c ->
    S.list
      [ S.atom "circuit"; model_to_sexp c.Ddf_data.c_models;
        netlist_to_sexp c.Ddf_data.c_netlist ]
  | Ddf_data.Performance p -> performance_to_sexp p
  | Ddf_data.Verification v -> verification_to_sexp v
  | Ddf_data.Plot p -> plot_to_sexp p
  | Ddf_data.Extraction_statistics s -> statistics_to_sexp s
  | Ddf_data.Transistor_view t -> transistor_to_sexp t
  | Ddf_data.Sim_options o ->
    S.list [ S.atom "sim_options"; S.int o.Ddf_data.settle_ps; S.int o.Ddf_data.plot_width ]
  | Ddf_data.Placement_options o ->
    S.list [ S.atom "placement_options"; S.atom o.Ddf_data.layout_suffix ]
  | Ddf_data.Optimizer_options o ->
    S.list
      [ S.atom "optimizer_options"; S.int o.Ddf_data.budget;
        S.float o.Ddf_data.objective.Optimize.delay_weight;
        S.float o.Ddf_data.objective.Optimize.power_weight ]
  | Ddf_data.Tool t -> S.list [ S.atom "tool"; tool_to_sexp t ]

let value_of_fields sexp =
  match S.as_list sexp with
  | [ S.Atom "blob"; kind; text ] ->
    Ddf_data.Blob { blob_kind = S.as_atom kind; text = S.as_atom text }
  | S.Atom "netlist" :: fields -> Ddf_data.Netlist (netlist_of_fields fields)
  | S.Atom "layout" :: fields -> Ddf_data.Layout (layout_of_fields fields)
  | S.Atom "device_models" :: parts -> Ddf_data.Device_models (model_of_parts parts)
  | S.Atom "stimuli" :: fields -> Ddf_data.Stimuli (stimuli_of_fields fields)
  | [ S.Atom "circuit"; models; netlist ] ->
    let c_models =
      match S.as_list models with
      | S.Atom "device_models" :: parts -> model_of_parts parts
      | _ -> codec_errorf "malformed circuit models"
    in
    let c_netlist =
      match S.as_list netlist with
      | S.Atom "netlist" :: fields -> netlist_of_fields fields
      | _ -> codec_errorf "malformed circuit netlist"
    in
    Ddf_data.Circuit { Ddf_data.c_models; c_netlist }
  | S.Atom "performance" :: parts -> Ddf_data.Performance (performance_of_parts parts)
  | S.Atom "verification" :: fields ->
    Ddf_data.Verification (verification_of_fields fields)
  | S.Atom "plot" :: fields -> Ddf_data.Plot (plot_of_fields fields)
  | S.Atom "extraction_statistics" :: parts ->
    Ddf_data.Extraction_statistics (statistics_of_parts parts)
  | S.Atom "transistor_view" :: fields ->
    Ddf_data.Transistor_view (transistor_of_fields fields)
  | [ S.Atom "sim_options"; settle; width ] ->
    Ddf_data.Sim_options
      { Ddf_data.settle_ps = S.as_int settle; plot_width = S.as_int width }
  | [ S.Atom "placement_options"; suffix ] ->
    Ddf_data.Placement_options { Ddf_data.layout_suffix = S.as_atom suffix }
  | [ S.Atom "optimizer_options"; budget; dw; pw ] ->
    Ddf_data.Optimizer_options
      { Ddf_data.budget = S.as_int budget;
        objective =
          { Optimize.delay_weight = S.as_float dw;
            power_weight = S.as_float pw } }
  | [ S.Atom "tool"; t ] -> Ddf_data.Tool (tool_of_sexp t)
  | S.Atom k :: _ -> codec_errorf "unknown payload kind %S" k
  | _ -> codec_errorf "malformed value"

(* The payload constructors check their own invariants: on text that
   breaks one (hostile or damaged bytes) their refusal is this
   codec's. *)
let value_of_sexp sexp =
  try value_of_fields sexp with
  | Netlist.Netlist_error m | Layout.Layout_error m | Device_model.Model_error m
  | Stimuli.Stimuli_error m | Edit_script.Edit_error m
  | Sim_compiled.Compile_error m | Transistor.Transistor_error m
  | Ddf_data.Type_error m ->
    raise (Codec_error m)
