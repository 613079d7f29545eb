(* Figure 2, live: how NOP insertion displaces instructions and destroys
   hidden gadgets.

     dune exec examples/gadget_removal.exe

   The paper's example stream "89 11 01 C3" is the two instructions
   "mov [ecx], edx ; add ebx, eax" — but decoded one byte in, it is
   "adc [ecx], eax ; ret": a ROP gadget the programmer never wrote.
   Inserting a NOP in front displaces the bytes so the hidden decoding
   disappears. *)

let show_stream title bytes =
  Format.printf "@.%s (%d bytes):@." title (String.length bytes);
  Format.printf "  intended decoding:@.";
  List.iter
    (fun (i, off) -> Format.printf "    +%d: %a@." off Insn.pp i)
    (Decode.sequence bytes);
  Format.printf "  gadget scan (all offsets):@.";
  let gadgets = Finder.scan bytes in
  if gadgets = [] then Format.printf "    (none)@."
  else
    List.iter (fun g -> Format.printf "    %a@." Finder.pp g) gadgets

let () =
  let open Insn in
  let original =
    Encode.program
      [
        Mov_rm_r (Mem (mem_base Reg.ECX), Reg.EDX); (* 89 11 *)
        Alu_rm_r (Add, Reg Reg.EBX, Reg.EAX); (* 01 C3 *)
      ]
  in
  show_stream "original stream (paper Figure 2)" original;

  (* Diversified: one NOP prepended — every later byte shifts by one. *)
  let diversified =
    Encode.program
      [
        Nop;
        Mov_rm_r (Mem (mem_base Reg.ECX), Reg.EDX);
        Alu_rm_r (Add, Reg Reg.EBX, Reg.EAX);
      ]
  in
  show_stream "after NOP insertion" diversified;

  let baseline = Finder.count original in
  let surviving diversified =
    List.length (Survivor.surviving_gadgets ~original ~diversified ())
  in
  Format.printf "@.survivor vs itself: %d of %d (sanity)@."
    (surviving original) baseline;
  Format.printf "survivor vs diversified: %d of %d gadgets remain@."
    (surviving diversified) baseline
