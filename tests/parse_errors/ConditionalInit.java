class ConditionalInit {
  public int pick(int c) {
    int x = c > 0 ? 1 : 2;
    return x;
  }
}
