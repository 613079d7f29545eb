type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI
[@@deriving eq, ord, show]

type r8 = AL | CL | DL | BL [@@deriving eq, ord, show]

let encode = function
  | EAX -> 0
  | ECX -> 1
  | EDX -> 2
  | EBX -> 3
  | ESP -> 4
  | EBP -> 5
  | ESI -> 6
  | EDI -> 7

let decode = function
  | 0 -> EAX
  | 1 -> ECX
  | 2 -> EDX
  | 3 -> EBX
  | 4 -> ESP
  | 5 -> EBP
  | 6 -> ESI
  | 7 -> EDI
  | n -> invalid_arg (Printf.sprintf "Reg.decode: %d" n)

let encode8 = function AL -> 0 | CL -> 1 | DL -> 2 | BL -> 3

let decode8 = function
  | 0 -> Some AL
  | 1 -> Some CL
  | 2 -> Some DL
  | 3 -> Some BL
  | _ -> None

let name = function
  | EAX -> "eax"
  | ECX -> "ecx"
  | EDX -> "edx"
  | EBX -> "ebx"
  | ESP -> "esp"
  | EBP -> "ebp"
  | ESI -> "esi"
  | EDI -> "edi"

let name8 = function AL -> "al" | CL -> "cl" | DL -> "dl" | BL -> "bl"
let all = [ EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI ]

let of_r8 = function AL -> EAX | CL -> ECX | DL -> EDX | BL -> EBX
