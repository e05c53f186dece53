(* The design-process level, in the spirit of Minerva (Jacome &
   Director, DAC'92), which the paper names as the home of design
   decomposition above the Hercules task level.

   A design process is a hierarchy of cells, each carrying goal
   requirements (which design objects must exist for the cell, e.g. a
   verified layout) and optionally an assigned designer.  Status is
   *derived*, never stored: a requirement is met when the workspace
   history contains an up-to-date instance of the goal entity derived
   from the cell's logic view -- exactly the consistency query of
   section 3.3, lifted to process tracking. *)

open Ddf_store
module E = Ddf_schema.Standard_schemas.E

type requirement = {
  req_goal : string;  (* goal entity that must be derived for the cell *)
}

type cell = {
  cell_name : string;
  requirements : requirement list;
  assigned_to : string option;
  children : cell list;
}

type t = {
  process_name : string;
  root : cell;
}

exception Process_error of string

let process_errorf fmt = Format.kasprintf (fun s -> raise (Process_error s)) fmt

let require goal = { req_goal = goal }

let cell ?(requirements = []) ?assigned_to ?(children = []) cell_name =
  { cell_name; requirements; assigned_to; children }

let rec all_cells c = c :: List.concat_map all_cells c.children

let create ~process_name root =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.cell_name then
        process_errorf "duplicate cell %S in the process" c.cell_name;
      Hashtbl.add seen c.cell_name ())
    (all_cells root);
  { process_name; root }

let process_name t = t.process_name
let root t = t.root

let find_cell t name =
  match List.find_opt (fun c -> c.cell_name = name) (all_cells t.root) with
  | Some c -> c
  | None -> process_errorf "no cell %S in process %S" name t.process_name

(* ------------------------------------------------------------------ *)
(* Linking cells to the workspace                                      *)
(* ------------------------------------------------------------------ *)

(* A cell's logic view is the newest netlist instance tagged with the
   keyword "cell:<name>" -- the convention the examples and the CLI
   follow when installing cell data. *)
let cell_keyword name = "cell:" ^ name

let logic_view (ctx : Ddf_exec.Engine.context) c =
  let filter =
    { Store.any_filter with
      Store.f_keywords = [ cell_keyword c.cell_name ] }
  in
  let snap = Store.snapshot ctx.Ddf_exec.Engine.store in
  Store.Snapshot.browse snap filter
  |> List.filter (fun iid ->
         Ddf_schema.Schema.is_subtype ctx.Ddf_exec.Engine.schema
           ~sub:(Store.Snapshot.entity_of snap iid)
           ~super:E.netlist)
  |> fun l -> List.nth_opt (List.rev l) 0

(* ------------------------------------------------------------------ *)
(* Derived status                                                      *)
(* ------------------------------------------------------------------ *)

type requirement_status =
  | No_logic_view          (* the cell has no design data yet *)
  | Missing                (* nothing derived for this goal yet *)
  | Met of Store.iid       (* an up-to-date goal instance exists *)
  | Stale of Store.iid     (* derived, but its sources have moved on *)

type cell_report = {
  cr_cell : string;
  cr_assigned_to : string option;
  cr_statuses : (requirement * requirement_status) list;
  cr_complete : bool;   (* all requirements Met *)
}

let requirement_status ctx c req =
  match logic_view ctx c with
  | None -> No_logic_view
  | Some logic -> (
    (* consider the whole version family: a goal derived from an older
       version still counts, but shows up stale once the cell moves on *)
    let origin =
      match
        Ddf_history.History.(
          Snapshot.versions (snapshot ctx.Ddf_exec.Engine.history) logic)
      with
      | first :: _ -> first
      | [] -> logic
    in
    match
      Ddf_exec.Consistency.derived_status ctx ~source:origin
        ~goal_entity:req.req_goal
    with
    | Ddf_exec.Consistency.Never_extracted -> Missing
    | Ddf_exec.Consistency.Up_to_date iid -> Met iid
    | Ddf_exec.Consistency.Out_of_date (iid, _) -> Stale iid)

let report_cell ctx c =
  let cr_statuses =
    List.map (fun req -> (req, requirement_status ctx c req)) c.requirements
  in
  {
    cr_cell = c.cell_name;
    cr_assigned_to = c.assigned_to;
    cr_statuses;
    cr_complete =
      c.requirements <> []
      && List.for_all
           (fun (_, s) -> match s with Met _ -> true | _ -> false)
           cr_statuses;
  }

let report ctx t = List.map (report_cell ctx) (all_cells t.root)

let completion ctx t =
  let cells = List.filter (fun c -> c.requirements <> []) (all_cells t.root) in
  if cells = [] then 1.0
  else
    float_of_int
      (List.length (List.filter (fun c -> (report_cell ctx c).cr_complete) cells))
    /. float_of_int (List.length cells)

(* Cells a designer could work on now: assigned to them (or unassigned)
   with at least one unmet requirement and a logic view to start from. *)
let worklist ctx t ~designer =
  List.filter
    (fun c ->
      (match c.assigned_to with None -> true | Some d -> d = designer)
      && c.requirements <> []
      && (not (report_cell ctx c).cr_complete)
      && logic_view ctx c <> None)
    (all_cells t.root)
  |> List.map (fun c -> c.cell_name)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let status_name = function
  | No_logic_view -> "no data"
  | Missing -> "missing"
  | Met _ -> "done"
  | Stale _ -> "STALE"

let pp_report ppf reports =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf r ->
         Fmt.pf ppf "%-16s %-10s %s" r.cr_cell
           (Option.value r.cr_assigned_to ~default:"-")
           (String.concat ", "
              (List.map
                 (fun (req, s) ->
                   Printf.sprintf "%s:%s" req.req_goal (status_name s))
                 r.cr_statuses))))
    reports
