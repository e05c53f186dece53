(* A traditional version tree (Fig. 11(a)), the versioning baseline.

   A dedicated version store keeps an explicit parent pointer per
   version -- and nothing else: it can answer ancestry questions but
   not "which tool, with which other inputs, produced this version",
   which the flow trace answers for free.  Experiment E11 compares
   storage and expressiveness. *)

type vid = int

type version = {
  vid : vid;
  parent : vid option;
  payload_hash : string;
  author : string;
  at : int;
}

type t = {
  mutable next : int;
  versions : (vid, version) Hashtbl.t;
  children : (vid, vid list ref) Hashtbl.t;
}

exception Version_error of string

let create () = { next = 1; versions = Hashtbl.create 16; children = Hashtbl.create 16 }

let check_in t ?parent ~payload_hash ~author ~at () =
  (match parent with
  | Some p when not (Hashtbl.mem t.versions p) ->
    raise (Version_error (Printf.sprintf "no parent version %d" p))
  | Some _ | None -> ());
  let vid = t.next in
  t.next <- vid + 1;
  Hashtbl.add t.versions vid { vid; parent; payload_hash; author; at };
  (match parent with
  | None -> ()
  | Some p ->
    let l =
      match Hashtbl.find_opt t.children p with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.children p l;
        l
    in
    l := vid :: !l);
  vid

let find t vid =
  match Hashtbl.find_opt t.versions vid with
  | Some v -> v
  | None -> raise (Version_error (Printf.sprintf "no version %d" vid))

let parent t vid = (find t vid).parent

let children t vid =
  match Hashtbl.find_opt t.children vid with
  | Some l -> List.sort compare !l
  | None -> []

let size t = Hashtbl.length t.versions

let roots t =
  Hashtbl.fold
    (fun vid v acc -> if v.parent = None then vid :: acc else acc)
    t.versions []
  |> List.sort compare

(* Meta-data footprint per version: parent pointer + hash + author +
   timestamp.  The history-based scheme stores tool and role bindings
   too; the experiment reports both so the overhead of the richer
   record is visible. *)
let metadata_bytes t =
  Hashtbl.fold
    (fun _ v acc ->
      acc + 8 (* parent *) + String.length v.payload_hash
      + String.length v.author + 8 (* timestamp *))
    t.versions 0

(* What a version tree cannot answer (the paper's Fig. 11 point). *)
let tool_used (_ : t) (_ : vid) : string option = None

let pp ppf t =
  let rec render ppf vid =
    let v = find t vid in
    match children t vid with
    | [] -> Fmt.pf ppf "v%d" v.vid
    | kids -> Fmt.pf ppf "v%d(%a)" v.vid (Fmt.list ~sep:Fmt.comma render) kids
  in
  Fmt.pf ppf "@[<h>version tree: %a@]" (Fmt.list ~sep:Fmt.sp render) (roots t)
