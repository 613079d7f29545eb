type level = O0 | O1 | O2

let level_of_string = function
  | "O0" | "o0" | "0" -> Some O0
  | "O1" | "o1" | "1" -> Some O1
  | "O2" | "o2" | "2" -> Some O2
  | _ -> None

let level_name = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(* Order matters mildly: folding exposes copies, copies expose common
   subexpressions, CSE exposes dead code, and a cleaner CFG feeds the
   next round. *)
let registry : Pass.t list =
  [ Simplify_cfg.pass; Constfold.pass; Copyprop.pass; Cse.pass; Dce.pass ]

let find_pass name =
  List.find_opt (fun (p : Pass.t) -> String.equal p.name name) registry

let pass_names = List.map (fun (p : Pass.t) -> p.Pass.name) registry

type descr = { passes : Pass.t list; max_rounds : int }

(* Fixpoint bound: optimization must terminate even if a pass pair were to
   oscillate; ten rounds is far beyond what real inputs need. *)
let default_rounds = 10

let of_level = function
  | O0 -> { passes = []; max_rounds = 0 }
  | O1 -> { passes = registry; max_rounds = 1 }
  | O2 -> { passes = registry; max_rounds = default_rounds }

let descr_to_string d =
  let names =
    String.concat "," (List.map (fun (p : Pass.t) -> p.Pass.name) d.passes)
  in
  if d.max_rounds = default_rounds then names
  else Printf.sprintf "%s@%d" names d.max_rounds

let descr_of_string s =
  let s = String.trim s in
  let body, rounds =
    match String.index_opt s '@' with
    | None -> (Ok s, default_rounds)
    | Some i -> (
        let suffix = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt suffix with
        | Some r when r >= 0 -> (Ok (String.sub s 0 i), r)
        | _ ->
            ( Error (Printf.sprintf "bad round bound %S (want @N, N >= 0)" suffix),
              0 ))
  in
  match body with
  | Error e -> Error e
  | Ok body -> (
      let names =
        if String.trim body = "" then []
        else List.map String.trim (String.split_on_char ',' body)
      in
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match find_pass n with
            | Some p -> resolve (p :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "unknown pass %S (known: %s)" n
                     (String.concat ", " pass_names)))
      in
      match resolve [] names with
      | Error e -> Error e
      | Ok passes -> Ok { passes; max_rounds = rounds })

let descr_equal a b =
  a.max_rounds = b.max_rounds
  && List.length a.passes = List.length b.passes
  && List.for_all2
       (fun (p : Pass.t) (q : Pass.t) -> String.equal p.name q.name)
       a.passes b.passes

let verify_func ~known_funcs ~pass (f : Ir.func) =
  match Verify.check_func ~known_funcs f with
  | [] -> ()
  | errs ->
      failwith
        (Printf.sprintf "IR verification failed after pass %s:\n%s" pass
           (String.concat "\n"
              (List.map
                 (fun (e : Verify.error) ->
                   Printf.sprintf "  %s: %s" e.func e.message)
                 errs)))

let run_pass ?cctx ~verify_each ~known_funcs (p : Pass.t) (f : Ir.func) =
  let before = Ir.size f in
  let changed, dt = Cctx.timed (fun () -> p.run f) in
  (match cctx with
  | Some c ->
      Cctx.record c
        {
          Cctx.stage = "ir";
          pass = p.name;
          func = f.Ir.name;
          time_s = dt;
          items_before = before;
          items_after = Ir.size f;
          bytes = 0;
          changed;
        }
  | None -> ());
  if verify_each then verify_func ~known_funcs ~pass:p.name f;
  changed

let run_func ?cctx ~verify_each ~known_funcs d (f : Ir.func) =
  let round () =
    List.fold_left
      (fun acc p -> run_pass ?cctx ~verify_each ~known_funcs p f || acc)
      false d.passes
  in
  let n = ref 0 in
  while !n < d.max_rounds && round () do
    incr n
  done

let known_funcs_of (m : Ir.modul) =
  Verify.builtin_arity
  @ List.map (fun (f : Ir.func) -> (f.Ir.name, List.length f.params)) m.funcs

let run ?cctx ?(verify_each = false) d (m : Ir.modul) =
  let known_funcs = if verify_each then known_funcs_of m else [] in
  List.iter (run_func ?cctx ~verify_each ~known_funcs d) m.funcs;
  m

let optimize (m : Ir.modul) =
  let m = run (of_level O2) m in
  Verify.check_exn m;
  m
