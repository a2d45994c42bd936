@ThreadSafe class MissingParams {
  private int n;

  public void bump {
    n = n + 1;
  }
}
