// Calls between functions: top calls mid, which calls leaf; is_even and
// is_odd call each other; alone calls nothing. A test of top reaches all
// three of its chain, a test of the pair reaches both, and a test of alone
// reaches alone only.

fn leaf(x: int) -> int {
    var y: int = x * 3;
    return y + 1;
}

fn mid(x: int) -> int {
    var y: int = leaf(x);
    return y * 2;
}

fn top(x: int) -> int {
    var y: int = mid(x);
    y = y + 3;
    return y;
}

fn is_even(n: int) -> bool {
    if (n == 0) {
        return true;
    }
    return is_odd(n - 1);
}

fn is_odd(n: int) -> bool {
    if (n == 0) {
        return false;
    }
    return is_even(n - 1);
}

fn alone(x: int) -> int {
    var i: int = 0;
    while (i < x) {
        i = i + 1;
    }
    return i - 1;
}
