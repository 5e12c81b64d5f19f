let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let fdiv a b =
  if b = 0 then raise Division_by_zero
  else
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let cdiv a b = -fdiv (-a) b
let fmod a b = a - (b * fdiv a b)
let pow2 n = n > 0 && n land (n - 1) = 0
