type t = int

let equal = Int.equal
let compare = Int.compare
let pp fmt i = Format.fprintf fmt "r%d" i
