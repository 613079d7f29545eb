(* A concrete return-oriented attack, executed in the simulator — and
   defeated by diversification.

     dune exec examples/rop_attack.exe

   The victim program contains the constant 50011 (= 0xC35B).  Encoded
   into a MOV immediate, those bytes are "5B C3" — "pop ebx ; ret" — a
   classic load-register gadget hiding inside an instruction the
   programmer wrote (exactly the phenomenon of paper Figure 2).

   The attacker, holding a copy of the shipped binary, builds a chain
   that (1) enters at the hidden gadget, (2) pops the desired exit status
   into EBX, and (3) returns into the tail of libc's exit() — the
   "mov eax, 1 ; int 0x80" sequence — hijacking the process.

   Against NOP-diversified versions the same offsets decode differently,
   and the chain crashes. *)

let victim_source =
  {|
  global int secret;
  global int requests[256];

  int check(int key) {
    // 50011 = 0xC35B: the constant whose encoding hides "pop ebx; ret"
    if (key == 50011) return 1;
    return 0;
  }

  // The server's actual work: a hot request-processing loop.  The
  // authentication check above is cold by comparison, which is exactly
  // where the profile-guided pass diversifies most aggressively.
  int process(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      requests[i & 255] = (i * 1103515245 + 12345) >> 16;
      acc = acc + (requests[i & 255] & 1023);
    }
    return acc;
  }

  int main(int key) {
    secret = 42;
    int busy = process(5000);
    if (check(key)) { print_int(secret); return busy & 7; }
    put_char('n'); put_char('o'); put_char(10);
    return 1;
  }
|}

let find_hidden_gadget (image : Link.image) =
  let gadgets = Finder.scan image.Link.text in
  List.find_opt
    (fun (g : Finder.t) ->
      g.offset >= image.Link.user_start
      &&
      match g.insns with
      | [ Insn.Pop_r Reg.EBX; Insn.Ret ] -> true
      | _ -> false)
    gadgets

let exit_syscall_offset (image : Link.image) =
  (* Skip exit()'s first instruction (mov ebx, [esp+4]) to reach the
     "mov eax, 1 ; int 0x80" tail — EBX stays attacker-controlled. *)
  let exit_off = Link.symbol_offset image "exit" in
  let first_len =
    match Decode.insn ~pos:exit_off image.Link.text with
    | Some (_, len) -> len
    | None -> failwith "cannot decode exit()"
  in
  exit_off + first_len

let attack (image : Link.image) ~gadget_offset =
  (* Chain layout (top of stack first): the value popped into EBX, then
     the address the gadget's RET transfers to. *)
  let va off = Int32.add image.Link.text_base (Int32.of_int off) in
  let chain = [ 99l (* exit status the attacker wants *);
                va (exit_syscall_offset image) ] in
  Sim.run_at ~fuel:100_000L image ~start_offset:gadget_offset
    ~stack_image:chain

let () =
  let compiled = Driver.compile ~name:"victim" victim_source in
  let baseline = Driver.link_baseline compiled in

  (* Normal behaviour. *)
  let normal = Driver.run_image baseline ~args:[ 50011l ] in
  Format.printf "victim(50011) prints %S, exits %ld@."
    (String.trim normal.Sim.output)
    normal.Sim.status;

  (* The attacker scans the shipped binary. *)
  let gadget =
    match find_hidden_gadget baseline with
    | Some g -> g
    | None -> failwith "expected the hidden pop ebx; ret gadget"
  in
  Format.printf "@.hidden gadget found at text offset 0x%x: %a@."
    gadget.Finder.offset Finder.pp gadget;

  (* The attack against the undiversified binary: full control. *)
  (match attack baseline ~gadget_offset:gadget.Finder.offset with
  | r ->
      Format.printf
        "attack on baseline: process exited with attacker-chosen status %ld@."
        r.Sim.status
  | exception Sim.Fault m -> Format.printf "attack on baseline faulted: %s@." m);

  (* The same attack against diversified versions. *)
  let profile = Driver.train compiled ~args:[ 50011l ] in
  let try_attacks ~label config =
    Format.printf "@.same chain against versions diversified with %s:@." label;
    let survived = ref 0 in
    List.iter
      (fun version ->
        let image, _ =
          Driver.diversify_linked compiled ~config ~profile ~version
        in
        (* Functionality is intact... *)
        let ok = Driver.run_image image ~args:[ 50011l ] in
        assert (ok.Sim.output = normal.Sim.output);
        (* ...but the attacker's offsets are stale. *)
        match attack image ~gadget_offset:gadget.Finder.offset with
        | r when r.Sim.status = 99l ->
            incr survived;
            Format.printf "  version %d: ATTACK SUCCEEDED@." version
        | r ->
            Format.printf "  version %d: attack failed (status %ld, not 99)@."
              version r.Sim.status
        | exception Sim.Fault m ->
            Format.printf "  version %d: attack crashed (%s)@." version m)
      (List.init 10 Fun.id);
    Format.printf "attack survival: %d of 10 versions@." !survived
  in
  let p030 = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  try_attacks ~label:"p0-30" p030;
  (* The victim's gadget sits near the start of its function, where plain
     NOP insertion has accumulated little displacement (the weakness
     paper §6 points out).  Its proposed fix — a jumped-over dummy block
     prepended to every function — displaces even offset zero. *)
  try_attacks ~label:"p0-30 + basic-block shifting"
    { p030 with Config.bb_shift = true }
