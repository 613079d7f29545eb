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

let pct p = int_of_float ((p *. 100.0) +. 0.5)

(* Names print probabilities as whole percents, so a config built from
   any other probability would share its name, and with it its report
   key and RNG streams, with the rounded config. *)
let check_pct fn p =
  if not (p >= 0.0 && p <= 1.0 && float_of_int (pct p) /. 100.0 = p) then
    invalid_arg
      (Printf.sprintf "Config.%s: %g is not a whole percent in [0,1]" fn p)

let uniform ?(seed = 0L) p =
  check_pct "uniform" p;
  { off with strategy = Uniform p; seed }

let profiled ?(seed = 0L) ?(shape = Heuristic.Logarithmic) ?(scope = `Program)
    ~pmin ~pmax () =
  check_pct "profiled" pmin;
  check_pct "profiled" pmax;
  if pmin > pmax then invalid_arg "Config.profiled: invalid range";
  { off with strategy = Profiled { pmin; pmax; shape; scope }; seed }

let paper_configs =
  [
    ("p50", uniform 0.50);
    ("p30", uniform 0.30);
    ("p25-50", profiled ~pmin:0.25 ~pmax:0.50 ());
    ("p10-50", profiled ~pmin:0.10 ~pmax:0.50 ());
    ("p0-30", profiled ~pmin:0.0 ~pmax:0.30 ());
  ]

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

(* A budget is in the name, so it must survive printing: finite,
   positive, and exact at the name's four decimals. *)
let valid_budget b =
  Float.is_finite b && b > 0.0 && float_of_string (budget_to_string b) = b

let with_budget t pct =
  if not (valid_budget pct) then
    invalid_arg (Printf.sprintf "Config.with_budget: bad budget %g" pct);
  { t with budget_pct = Some pct }

(* Every field that changes behaviour must appear in the name: the name
   keys reports, and its base (below) seeds every divpass RNG stream
   (Rng.of_labels in Divpass), so two distinct configs sharing a base
   name would also share their randomness.  The divpass/budget suffixes
   come last and in a fixed order so the name stays canonical. *)
let base_name t =
  (match t.strategy with
  | Off -> "baseline"
  | Uniform p -> "p" ^ string_of_int (pct p)
  | Profiled { pmin; pmax; shape; scope } ->
      String.concat ""
        [
          "p";
          string_of_int (pct pmin);
          "-";
          string_of_int (pct pmax);
          (match shape with Heuristic.Linear -> "-lin" | Heuristic.Logarithmic -> "");
          (match scope with `Function -> "-fn" | `Program -> "");
        ])
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

(* ---- spec parsing: the inverse of [name] ---- *)

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
              (* A budget only in its printed form, so the spec is its name. *)
              let text = String.sub s 1 (String.length s - 1) in
              match float_of_string_opt text with
              | Some b when valid_budget b && budget_to_string b = text ->
                  Ok { t with budget_pct = Some b }
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
    (* Only what [name] prints, not "050", "0x1e" or "3_0", which
       int_of_string reads as the same number. *)
    let is_pct s = match int_of_string_opt s with
      | Some n -> n >= 0 && n <= 100 && string_of_int n = s
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
   a name means.  Accepts exactly what [name] can print, so every spec
   round-trips. *)
let of_spec spec =
  match String.split_on_char '+' spec with
  | [] -> Error "empty config spec"
  | base :: suffixes -> (
      match parse_base base with
      | Some t -> parse_suffixes t suffixes
      | None ->
          Error
            (Printf.sprintf
               "unknown config %S (use p50 p30 p25-50 p10-50 p0-30, off, \
                p<P>, p<LO>-<HI>[-lin][-fn] in whole percents, with optional \
                +xchg +shift +sched +regperm +subst +nonop +b<PCT> suffixes)"
               spec))
