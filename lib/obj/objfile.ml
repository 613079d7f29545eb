type meta = { ir_digest : string; pipeline : string; arity : int }

type func_obj = {
  sym : string;
  code : string;
  relocs : Asm.reloc list;
  labels : (Ir.label * int) list;
  asm : Asm.func;
  meta : meta;
}

type t = { uname : string; funcs : func_obj list; globals : Ir.global list }

(* Bumped whenever the marshalled layout of [t] (or anything reachable
   from it: Asm.func, Insn.t, Ir.global) changes.  Also folded into every
   {!Store} key, so a format bump invalidates cached artifacts instead of
   resurrecting stale ones.  Version 2: every [Asm.Ins] item carries its
   encoding next to the instruction.  Version 3: an [Asm.func] is a base
   (its items and, once computed, their flat layout) plus insertions. *)
let format_version = 3

let no_digest = "-"

let of_asm ?(ir_digest = no_digest) ?(pipeline = no_digest) ~arity
    (f : Asm.func) =
  let a = Asm.assemble f in
  {
    sym = Asm.name f;
    code = a.Asm.bytes;
    relocs = a.Asm.relocs;
    labels = a.Asm.label_offsets;
    asm = f;
    meta = { ir_digest; pipeline; arity };
  }

let code_size o = String.length o.code

let magic = "PSDOBJCT"

let save (unit : t) path = Frame.save ~magic ~version:format_version unit path

let load path : t =
  Frame.load ~magic ~version:format_version ~what:"PSD object file" path
