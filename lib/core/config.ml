type strategy =
  | Off
  | Uniform of float
  | Profiled of {
      pmin : float;
      pmax : float;
      shape : Heuristic.shape;
      scope : [ `Program | `Function ];
    }

type passes = {
  nop : bool;
  sched : bool;
  regperm : bool;
  subst : bool;
}

let nop_only = { nop = true; sched = false; regperm = false; subst = false }

type t = {
  strategy : strategy;
  use_xchg : bool;
  bb_shift : bool;
  seed : int64;
  passes : passes;
  budget_pct : float option;
}

let off =
  {
    strategy = Off;
    use_xchg = false;
    bb_shift = false;
    seed = 0L;
    passes = nop_only;
    budget_pct = None;
  }

let uniform ?(seed = 0L) p =
  if p < 0.0 || p > 1.0 then invalid_arg "Config.uniform: p outside [0,1]";
  { off with strategy = Uniform p; seed }

let profiled ?(seed = 0L) ?(shape = Heuristic.Logarithmic) ?(scope = `Program)
    ~pmin ~pmax () =
  if pmin < 0.0 || pmax > 1.0 || pmin > pmax then
    invalid_arg "Config.profiled: invalid range";
  { off with strategy = Profiled { pmin; pmax; shape; scope }; seed }

let with_budget t pct =
  if pct <= 0.0 then invalid_arg "Config.with_budget: budget must be positive";
  { t with budget_pct = Some pct }

let paper_configs =
  [
    ("p50", uniform 0.50);
    ("p30", uniform 0.30);
    ("p25-50", profiled ~pmin:0.25 ~pmax:0.50 ());
    ("p10-50", profiled ~pmin:0.10 ~pmax:0.50 ());
    ("p0-30", profiled ~pmin:0.0 ~pmax:0.30 ());
  ]

let pct p = int_of_float ((p *. 100.0) +. 0.5)

(* Budgets print compactly ("1", "2.5") and must re-parse to the same
   float, so cap the precision instead of using %g's default. *)
let budget_to_string b =
  let s = Printf.sprintf "%.4f" b in
  let s =
    let n = String.length s in
    let rec trim i = if i > 0 && s.[i - 1] = '0' then trim (i - 1) else i in
    let i = trim n in
    let i = if i > 0 && s.[i - 1] = '.' then i - 1 else i in
    String.sub s 0 i
  in
  s

(* Every field that changes behaviour must appear in the name: the name
   keys reports, and its base (below) seeds every divpass RNG stream
   (Rng.of_labels in Divpass), so two distinct configs sharing a base
   name would also share their randomness.  The divpass/budget suffixes
   come last and in a fixed order so the name stays canonical. *)
let base_name t =
  (match t.strategy with
  | Off -> "baseline"
  | Uniform p -> Printf.sprintf "p%d" (pct p)
  | Profiled { pmin; pmax; shape; scope } ->
      Printf.sprintf "p%d-%d%s%s" (pct pmin) (pct pmax)
        (match shape with Heuristic.Linear -> "-lin" | Heuristic.Logarithmic -> "")
        (match scope with `Function -> "-fn" | `Program -> ""))
  ^ (if t.use_xchg then "+xchg" else "")
  ^ if t.bb_shift then "+shift" else ""

let name t =
  base_name t
  ^ (if t.passes.sched then "+sched" else "")
  ^ (if t.passes.regperm then "+regperm" else "")
  ^ (if t.passes.subst then "+subst" else "")
  ^ (if not t.passes.nop then "+nonop" else "")
  ^
  match t.budget_pct with
  | None -> ""
  | Some b -> "+b" ^ budget_to_string b

(* ---- spec parsing: the inverse of [name], plus the explicit
   uniform:P / range:LO:HI escapes ---- *)

let parse_suffixes t suffixes =
  List.fold_left
    (fun acc suffix ->
      match acc with
      | Error _ -> acc
      | Ok t -> (
          match suffix with
          | "xchg" -> Ok { t with use_xchg = true }
          | "shift" -> Ok { t with bb_shift = true }
          | "sched" -> Ok { t with passes = { t.passes with sched = true } }
          | "regperm" -> Ok { t with passes = { t.passes with regperm = true } }
          | "subst" -> Ok { t with passes = { t.passes with subst = true } }
          | "nonop" -> Ok { t with passes = { t.passes with nop = false } }
          | s
            when String.length s > 1
                 && s.[0] = 'b'
                 && float_of_string_opt (String.sub s 1 (String.length s - 1))
                    <> None -> (
              match
                float_of_string_opt (String.sub s 1 (String.length s - 1))
              with
              | Some b when b > 0.0 -> Ok { t with budget_pct = Some b }
              | _ -> Error (Printf.sprintf "bad budget suffix %S" s))
          | s -> Error (Printf.sprintf "unknown suffix %S" s)))
    (Ok t) suffixes

(* "p30", "p25-50", "p25-50-lin", "p0-30-fn", "p10-50-lin-fn". *)
let parse_base base =
  if base = "off" || base = "baseline" then Some off
  else if String.length base < 2 || base.[0] <> 'p' then None
  else
    let parts =
      String.split_on_char '-' (String.sub base 1 (String.length base - 1))
    in
    let is_pct s = match int_of_string_opt s with
      | Some n -> n >= 0 && n <= 100
      | None -> false
    in
    let pct_of s = float_of_int (int_of_string s) /. 100.0 in
    match parts with
    | [ p ] when is_pct p -> Some (uniform (pct_of p))
    | lo :: hi :: rest when is_pct lo && is_pct hi -> (
        let pmin = pct_of lo and pmax = pct_of hi in
        if pmin > pmax then None
        else
          let rec opts shape scope = function
            | [] -> Some (shape, scope)
            | "lin" :: rest -> opts Heuristic.Linear scope rest
            | "fn" :: rest -> opts shape `Function rest
            | _ -> None
          in
          match opts Heuristic.Logarithmic `Program rest with
          | Some (shape, scope) -> Some (profiled ~shape ~scope ~pmin ~pmax ())
          | None -> None)
    | _ -> None

(* The one config grammar every entry point shares: minicc's --config,
   the serve protocol's request field, and the bench harness all resolve
   specs here, so a daemon and its clients can never disagree about what
   a name means.  Accepts everything [name] can print (so any config
   round-trips), plus uniform:P and range:LO:HI. *)
let of_spec spec =
  match String.split_on_char '+' spec with
  | [] -> Error "empty config spec"
  | base :: suffixes -> (
      let parsed_base =
        match parse_base base with
        | Some t -> Ok (Some t)
        | None -> (
            match String.split_on_char ':' base with
            | [ "uniform"; p ] -> (
                match float_of_string_opt p with
                | Some p when p >= 0.0 && p <= 1.0 -> Ok (Some (uniform p))
                | _ ->
                    Error (Printf.sprintf "uniform: bad probability %S" p))
            | [ "range"; lo; hi ] -> (
                match (float_of_string_opt lo, float_of_string_opt hi) with
                | Some pmin, Some pmax
                  when pmin >= 0.0 && pmax <= 1.0 && pmin <= pmax ->
                    Ok (Some (profiled ~pmin ~pmax ()))
                | _ ->
                    Error (Printf.sprintf "range: bad bounds %S:%S" lo hi))
            | _ -> Ok None)
      in
      match parsed_base with
      | Error e -> Error e
      | Ok None ->
          Error
            (Printf.sprintf
               "unknown config %S (use p50 p30 p25-50 p10-50 p0-30, off, \
                uniform:P, range:LO:HI, p<LO>-<HI>[-lin][-fn], with optional \
                +xchg +shift +sched +regperm +subst +nonop +b<PCT> suffixes)"
               spec)
      | Ok (Some t) -> parse_suffixes t suffixes)
