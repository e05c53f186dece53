(* Registry-driven fault points.  Production code calls [fire]/[check]
   at named sites; nothing happens until a test (or DDF_FAULT) arms
   the point.  The registry is process-global and mutex-guarded — the
   server hits points from several threads. *)

exception Injected of string

type action =
  | Fail
  | Torn of int
  | Delay of float

type point = {
  p_action : action;
  mutable p_skip : int;      (* hits to ignore before firing *)
  mutable p_left : int;      (* firings remaining *)
  mutable p_fired : int;
}

let m = Mutex.create ()
let points : (string, point) Hashtbl.t = Hashtbl.create 8
let env_loaded = ref false

let m_injected = Ddf_obs.Metrics.counter "fault.injected"

let locked f =
  Mutex.lock m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock m)

let arm ?(after = 0) ?(times = 1) name action =
  locked (fun () ->
      Hashtbl.replace points name
        { p_action = action; p_skip = after; p_left = times; p_fired = 0 })

let reset () = locked (fun () -> Hashtbl.reset points)

(* point=action[:arg][@skip][xtimes] ; ... *)
let configure spec =
  let bad fmt = Printf.ksprintf (fun s -> invalid_arg ("DDF_FAULT: " ^ s)) fmt in
  String.split_on_char ';' spec
  |> List.concat_map (String.split_on_char ',')
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.iter (fun entry ->
         match String.index_opt entry '=' with
         | None -> bad "missing '=' in %S" entry
         | Some eq ->
           let name = String.sub entry 0 eq in
           let rhs =
             String.sub entry (eq + 1) (String.length entry - eq - 1)
           in
           (* peel xM then @N suffixes *)
           let rhs, times =
             match String.rindex_opt rhs 'x' with
             | Some i when i > 0 -> (
               let suffix = String.sub rhs (i + 1) (String.length rhs - i - 1) in
               if suffix = "*" then (String.sub rhs 0 i, max_int)
               else
                 match int_of_string_opt suffix with
                 | Some n when n >= 0 -> (String.sub rhs 0 i, n)
                 | Some _ | None -> (rhs, 1))
             | Some _ | None -> (rhs, 1)
           in
           let rhs, after =
             match String.index_opt rhs '@' with
             | None -> (rhs, 0)
             | Some i -> (
               let suffix = String.sub rhs (i + 1) (String.length rhs - i - 1) in
               match int_of_string_opt suffix with
               | Some n when n >= 0 -> (String.sub rhs 0 i, n)
               | Some _ | None -> bad "bad skip count in %S" entry)
           in
           let action =
             match String.split_on_char ':' rhs with
             | [ "fail" ] -> Fail
             | [ "torn"; n ] -> (
               match int_of_string_opt n with
               | Some k when k >= 0 -> Torn k
               | Some _ | None -> bad "bad byte count in %S" entry)
             | [ "delay"; s ] -> (
               match float_of_string_opt s with
               | Some f when f >= 0.0 -> Delay f
               | Some _ | None -> bad "bad delay in %S" entry)
             | _ -> bad "unknown action in %S" entry
           in
           arm ~after ~times name action)

let load_env () =
  env_loaded := true;
  match Sys.getenv_opt "DDF_FAULT" with
  | Some spec when spec <> "" -> configure spec
  | Some _ | None -> ()

let ensure_env () = if not !env_loaded then load_env ()

(* One hit: consume the skip window, then an armed firing. *)
let take name =
  ensure_env ();
  locked (fun () ->
      match Hashtbl.find_opt points name with
      | None -> None
      | Some p ->
        if p.p_skip > 0 then begin
          p.p_skip <- p.p_skip - 1;
          None
        end
        else if p.p_left <= 0 then None
        else begin
          p.p_left <- (if p.p_left = max_int then max_int else p.p_left - 1);
          p.p_fired <- p.p_fired + 1;
          Ddf_obs.Metrics.incr m_injected;
          Some p.p_action
        end)

let check name =
  match take name with
  | Some (Delay s) ->
    Thread.delay s;
    None
  | other -> other

let fire name =
  match check name with
  | None | Some (Delay _) -> ()
  | Some (Fail | Torn _) -> raise (Injected name)

let fired name =
  locked (fun () ->
      match Hashtbl.find_opt points name with
      | None -> 0
      | Some p -> p.p_fired)
